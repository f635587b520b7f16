"""Smoke tests of traced benchmark runs: `bench/run.py --trace 1` finishes,
checks every record, and reports the per-layer metrics of pi-records and of
fuzz-corpus.

Each runs the benchmark script in a subprocess from the repository root, as
its docstring says to, and takes five to ten seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_metrics(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_pi_records_run():
    metrics = _traced_metrics("pi-records")
    assert "units.is_consistent_us" in metrics
    # the reference is checked against each basis's cached row space, so
    # the median record makes no exact elimination
    assert metrics["exactlin.rref_calls"]["value"] == 0


def test_traced_fuzz_corpus_run():
    # the workload times dsl.typecheck, dsl.evaluate, harness.rescale and
    # harness._shrink per call: each must still be called, through the
    # names the tracer wraps, or the run fails on an empty median
    metrics = _traced_metrics("fuzz-corpus")
    for name in ("dsl.typecheck_us", "dsl.evaluate_us", "harness.rescale_us", "harness.shrink_ms"):
        assert metrics[name]["value"] > 0, name
