"""Smoke tests of traced benchmark runs: `bench/run.py --trace 1` finishes,
checks every record, and reports the per-layer metrics of pi-records and of
fuzz-corpus.

Each runs the benchmark script in a subprocess from the repository root, as
its docstring says to, and takes five to ten seconds. The check of the
traced names reads the workload files and starts no process.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    # nothing in piforge calls exactlin.rref itself (eliminations go
    # through exactlin.eliminate), so the count reads 0 on every record
    assert metrics["exactlin.rref_calls"]["value"] == 0


def test_traced_fuzz_corpus_run():
    # the workload times dsl.typecheck, dsl.evaluate, harness.rescale and
    # harness._shrink per call: each must still be called, through the
    # names the tracer wraps, or the run fails on an empty median
    metrics = _traced_metrics("fuzz-corpus")
    for name in ("dsl.typecheck_us", "dsl.evaluate_us", "harness.rescale_us", "harness.shrink_ms"):
        assert metrics[name]["value"] > 0, name


def _literals(path, names):
    """The module-level literals of a bench file bound to these names."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names:
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found


RUN = _literals(ROOT / "bench" / "run.py", ("WORKLOADS", "LAYERS"))


@pytest.mark.parametrize("workload", sorted(RUN["WORKLOADS"].values()))
def test_traced_names_are_piforge_functions(workload):
    """Every name a workload traces is a function of a piforge module the
    tracer loads, so a renamed or removed function fails here, not in the
    benchmark run; per-call and watched names must be traced."""
    found = _literals(ROOT / "bench" / f"{workload}.py", ("TRACED", "PER_CALL", "WATCH"))
    traced = found["TRACED"]
    for name in traced:
        module, function = name.split(".")
        assert module in RUN["LAYERS"], name
        assert callable(getattr(importlib.import_module(f"piforge.{module}"), function, None)), name
    for name in [*found["PER_CALL"], *found["WATCH"], *found["WATCH"].values()]:
        assert name in traced, name
