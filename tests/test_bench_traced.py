"""Smoke test of a traced benchmark run: `bench/run.py --trace 1` finishes,
checks every record, and reports the per-layer metrics of pi-records.

It runs the benchmark script in a subprocess from the repository root, as
its docstring says to, and takes about ten seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pi_records_run():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pi-records",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert "units.is_consistent_us" in metrics
    # the reference is checked against each basis's cached row space, so
    # the median record makes no exact elimination
    assert metrics["exactlin.rref_calls"]["value"] == 0
