#!/usr/bin/env python3
"""piforge benchmark: four workloads, end to end or traced layer by layer.

    python3 bench/run.py --workload basis-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run does a fixed amount of work: whole
rounds of a fixed operation mix, round(seconds / nominal round time) of
them, so the operation count and mix never depend on how fast the host
happens to be. Latencies are scaled to a reference host speed (see
reference_seconds); the unscaled figures are printed on an "as measured:"
line. Every operation's output is checked against facts computed apart
from piforge. The last line of standard output is one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from common import ChildResult, Context, run_child
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = {
    "cli-session": "session",
    "basis-ladder": "ladder",
    "pi-records": "records",
    "fuzz-corpus": "corpus",
}
LAYERS = ("exactlin", "core", "units", "pigroups", "nondim", "dsl", "harness", "cli")
SETUP_REPS = 5
STARTUP_REPS = 5
STARTUP_METRICS = (
    ("startup.interpreter_ms", "ms"),
    ("startup.import_piforge_ms", "ms"),
    ("startup.import_numpy_ms", "ms"),
)
_IMPORT_TIMER = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"

# Host speed. On the reference host the same work runs up to 1.9x slower
# for tens of seconds at a time, alike for every workload and for this fixed
# computation (exact elimination, no piforge). It runs after every
# REFERENCE_EVERY_S of operation time, and each operation's latency is
# scaled to a host on which it takes REFERENCE_NOMINAL_S, by the mean of the
# reference runs just before and after it.
REFERENCE_MATRIX = (
    (1, 1, -2, 0, 2, 1, 1, 0, 1, 0, 2, -1),
    (2, -1, 0, -1, -2, 2, 0, 2, 2, -1, 0, -2),
    (-2, 0, 1, 2, -2, 0, 1, 0, 2, -1, 2, 1),
    (1, 2, 0, -2, 2, -2, -2, 1, -2, 2, 1, 0),
    (-1, 0, -2, -1, 2, -1, -1, -1, 2, 1, -2, -2),
)
REFERENCE_NOMINAL_S = 0.002
REFERENCE_EVERY_S = 0.25


def reference_seconds() -> float:
    """The reference computation's wall time, with the cyclic garbage
    collector off so that it does not depend on the workload's heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            checks.rank(REFERENCE_MATRIX)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _context(workdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIFORGE_")}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return Context(root=ROOT, workdir=workdir, python=sys.executable, child_env=env)


def rounds_for(module, seconds: float) -> int:
    return max(1, round(seconds / module.ROUND_SECONDS))


def run_rounds(module, state, rounds: int, tracer=None):
    """Time every operation of every round, with the host-speed reference
    run between operations; check outputs between rounds, outside the timed
    phase. Returns (results, failed, errors, peak child memory in KB) where
    results hold (tag, seconds, trace delta, local reference seconds): the
    mean of the reference runs just before and just after the operation. A
    round's operations and outputs are dropped once checked, so memory does
    not grow with the number of rounds."""
    results, errors = [], []
    reference = reference_seconds()
    since_reference = 0.0
    failed = 0
    child_peak_kb = 0
    for r in range(rounds):
        ops = module.round_ops(state, r)
        outputs, pending = [], []
        for op in ops:
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                out = None
                failed += 1
                if failed == 1:
                    traceback.print_exc()
            latency = time.perf_counter() - t0
            pending.append((op, out, latency, tracer.delta(before) if tracer else None))
            since_reference += latency
            if since_reference >= REFERENCE_EVERY_S or op is ops[-1]:
                # A long operation gets more reference runs after it.
                repeats = min(8, max(1, int(since_reference / REFERENCE_EVERY_S)))
                after = statistics.fmean(reference_seconds() for _ in range(repeats))
                outputs += [(*item, (reference + after) / 2) for item in pending]
                pending, reference, since_reference = [], after, 0.0
        for op, out, latency, delta, local in outputs:
            if out is None:
                continue
            results.append((op.tag, latency, delta, local))
            errors += op.check(out)
            if isinstance(out, ChildResult):
                child_peak_kb = max(child_peak_kb, out.max_rss_kb)
    return results, failed, errors, child_peak_kb


def end_to_end(results, child_peak_kb) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics at the nominal host speed, the same as measured). Each
    operation's latency is scaled by its local reference time."""
    peak_kb = child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [lat for _, lat, _, _ in results]
    scaled = [lat * REFERENCE_NOMINAL_S / local for _, lat, _, local in results]
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }, {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "slowdown": sum(latencies) / sum(scaled),
    }


def measure_setup(args, ctx) -> float:
    """Median wall time of fresh processes that import piforge and build
    what the workload reuses; one unmeasured run first writes bytecode.
    Reported as measured: the in-process reference does not track the cost
    of starting a process."""
    cmd = [ctx.python, str(Path(__file__).resolve()), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times = []
    for rep in range(SETUP_REPS + 1):
        res = run_child(cmd, ctx)
        if res.code != 0:
            raise RuntimeError(f"set-up probe failed: {res.err.strip()}")
        if rep:
            times.append(res.seconds)
    return statistics.median(times)


def measure_startup(ctx) -> dict[str, float]:
    def median_of(cmd, parse):
        samples = []
        for rep in range(STARTUP_REPS + 1):
            res = run_child(cmd, ctx)
            if res.code != 0:
                raise RuntimeError(f"{' '.join(cmd)} failed: {res.err.strip()}")
            if rep:
                samples.append(parse(res))
        return statistics.median(samples) * 1e3

    imported = lambda res: float(res.out.strip())
    return {
        "startup.interpreter_ms": median_of([ctx.python, "-c", "pass"], lambda res: res.seconds),
        "startup.import_piforge_ms": median_of(
            [ctx.python, "-c", _IMPORT_TIMER.format("piforge")], imported),
        "startup.import_numpy_ms": median_of(
            [ctx.python, "-c", _IMPORT_TIMER.format("numpy")], imported),
    }


def _modules():
    return {name: importlib.import_module(mod) for name, mod in WORKLOADS.items()}


def per_layer_names(modules) -> list[tuple[str, str]]:
    names = list(STARTUP_METRICS)
    for module in modules.values():
        names += module.LAYER_METRICS
    return names


def make_tracer(modules):
    names, per_call, watch = [], set(), {}
    for module in modules.values():
        names += [n for n in module.TRACED if n not in names]
        per_call.update(module.PER_CALL)
        watch.update(module.WATCH)
    layers = {name: importlib.import_module(f"piforge.{name}") for name in LAYERS}
    layers["piforge"] = importlib.import_module("piforge")
    return Tracer(layers, names, per_call=per_call, watch=watch)


def traced_run(args, ctx, modules):
    """The selected workload in full, then one round of each other workload,
    all under the tracer; start-up is measured in fresh processes."""
    tracer = make_tracer(modules)
    tracer.install()
    metrics, errors = {}, []
    attempted = failed = 0
    try:
        for name, module in modules.items():
            selected = name == args.workload
            rounds = rounds_for(module, args.seconds) if selected else 1
            tracer.clear_samples()
            state = module.prepare(args.seed, ctx)
            errors += module.check_setup(state)
            results, n_failed, errs, child_kb = run_rounds(module, state, rounds, tracer)
            errors += errs
            attempted += len(results) + n_failed
            failed += n_failed
            if results:
                metrics.update(module.layer_metrics(results, tracer))
            if selected and results:
                scaled, raw = end_to_end(results, child_kb)
                print("traced end-to-end:", json.dumps({"workload": name, **scaled, "raw": raw}))
    finally:
        tracer.uninstall()
    metrics.update(measure_startup(ctx))
    units = dict(per_layer_names(modules))
    return attempted, failed, errors, {k: (metrics[k], units[k]) for k in units if k in metrics}


def untraced_run(args, ctx, module):
    setup_s = measure_setup(args, ctx)
    state = module.prepare(args.seed, ctx)
    errors = module.check_setup(state)
    results, failed, errs, child_kb = run_rounds(module, state, rounds_for(module, args.seconds))
    errors += errs
    metrics = {"setup_s": setup_s}
    if results:
        scaled, raw = end_to_end(results, child_kb)
        metrics.update(scaled)
        print("as measured:", json.dumps(raw))
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    return len(results) + failed, failed, errors, {k: (v, units[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "piforge" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no piforge sources under {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for this process and every child, so that the host-speed
    # reference runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = _context(workdir)
        modules = _modules()
        module = modules[args.workload]
        if args.setup_probe:
            module.prepare(args.seed, ctx)
            return 0
        if args.trace:
            attempted, failed, errors, metrics = traced_run(args, ctx, modules)
        else:
            attempted, failed, errors, metrics = untraced_run(args, ctx, module)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
