"""fuzz-corpus: the invariance fuzzer on a seeded corpus of relations.

The corpus is the fixture relations plus relations generated from the seed:
dimensionally homogeneous ones (invariant by construction) and ones with a
hidden dimensional constant or a mixed comparison (not invariant). Every
relation stays inside its domain on every trial: no subtraction, logs only
of products, no exp, and exponents small enough that no magnitude overflows.
One operation is one fuzz_invariance(spec, TRIALS, seed).
"""

from __future__ import annotations

import json
import math
import random
import statistics

from piforge import dsl, harness

import checks
from common import Op

NAME = "fuzz-corpus"
TRIALS = 100
ROUND_SECONDS = 0.55
# Every generated relation is over the same system and has a fixed shape
# per template, so the seed moves exponents and constants, not the cost.
SYSTEM = ("M", "L", "T")
# (template, invariant, how many per corpus)
GENERATED = (
    ("power_lt", True, 4), ("seeded_eq", True, 4), ("sum_le", True, 4),
    ("log_sin", True, 4), ("bool_mix", True, 4),
    ("hidden_constant", False, 5), ("mixed_lt", False, 5),
)


def _is_pos_int(v):
    nearest = round(v)
    return abs(v - nearest) <= checks.REL_TOL and nearest >= 1


# Fixture relations, each with a hand-written Python version.
FIXTURES = (
    ("newton", True, lambda v: checks.rel_eq(v["F"], v["m"] * v["a"])),
    ("light_three_var", True, lambda v: checks.rel_eq(v["x"], v["c"] * v["t"])),
    ("electronics", True, lambda v: checks.rel_eq(v["v"], v["i"] * v["r"])),
    ("independent_dims", True,
     lambda v: checks.rel_eq(v["m"] * v["x"] / (v["t"] * v["t"]), v["m"] * v["x"] * v["t"] ** -2)),
    ("mass_spring", True,
     lambda v: _is_pos_int(v["t"] / (2 * math.pi) * (v["k"] / v["m"]) ** 0.5)),
    ("hidden_constant", False, lambda v: checks.rel_eq(v["x"], 299792458 * v["t"])),
)

TRACED = ("dsl.parse_relation", "dsl.typecheck", "dsl.evaluate", "harness.rescale", "harness._shrink")
PER_CALL = ("dsl.parse_relation", "dsl.typecheck", "dsl.evaluate", "harness.rescale", "harness._shrink")
WATCH = {"harness._shrink": "dsl.evaluate"}
LAYER_METRICS = (
    ("dsl.parse_relation_us", "us"),
    ("dsl.typecheck_us", "us"),
    ("dsl.evaluate_us", "us"),
    ("harness.rescale_us", "us"),
    ("harness.trial_us", "us"),
    ("harness.evaluate_calls", "count"),
    ("harness.shrink_evaluations", "count"),
    ("harness.shrink_ms", "ms"),
)


def _dim_text(vec: dict) -> str:
    parts = [f"{f}^{e}" if e != 1 else f for f, e in vec.items() if e != 0]
    return "*".join(parts) or "1"


def _combine(*terms) -> dict:
    """Sum of (coefficient, exponent dict) terms."""
    out = {}
    for c, vec in terms:
        for f, e in vec.items():
            out[f] = out.get(f, 0) + c * e
    return out


def generate(rng: random.Random, template: str) -> tuple[dict, dict, callable]:
    """A relation as (spec dict, dims by variable, Python truth function)."""
    system = SYSTEM

    def dim():
        while True:
            vec = {f: rng.randint(-2, 2) for f in system}
            if any(vec.values()):
                return vec

    def mismatch():
        # Off by at least 2 in two fundamentals, so a rescaling flips the
        # truth value on a large share of trials.
        f1, f2 = rng.sample(system, 2)
        return {f1: rng.choice((-2, 2)), f2: rng.choice((-2, 2))}

    p, q = rng.randint(1, 3), rng.randint(1, 2)
    k = round(rng.uniform(0.5, 20.0), 3)
    d1, d2, d4 = dim(), dim(), dim()
    if template == "power_lt":
        dims = {"x1": d1, "x2": d2, "x3": _combine((p, d1), (q, d2))}
        text = f"x1^{p}*x2^{q} < x3"
        truth = lambda v: v["x1"] ** p * v["x2"] ** q < v["x3"]
    elif template == "seeded_eq":
        dims = {"x1": d1, "x2": d2, "x3": _combine((p, d1), (-q, d2))}
        text = f"x3 = {k}*x1^{p}/x2^{q}"
        truth = lambda v: checks.rel_eq(v["x3"], k * v["x1"] ** p / v["x2"] ** q)
    elif template == "sum_le":
        d12 = _combine((1, d1), (1, d2))
        dims = {"x1": d1, "x2": d2, "x3": d12, "x4": d4, "x5": _combine((1, d12), (-1, d4))}
        text = "x1*x2 + x3 <= x4*x5"
        truth = lambda v: v["x1"] * v["x2"] + v["x3"] <= v["x4"] * v["x5"]
    elif template == "log_sin":
        dims = {"x1": d1, "x2": d2, "x3": _combine((p, d1), (1, d2)), "x4": d4, "x5": d4}
        text = f"log(x1^{p}*x2/x3) < sin(x4/x5)"
        truth = lambda v: math.log(v["x1"] ** p * v["x2"] / v["x3"]) < math.sin(v["x4"] / v["x5"])
    elif template == "bool_mix":
        dims = {"x1": d1, "x2": d1, "x3": d2, "x4": d4, "x5": _combine((1, d2), (1, d4))}
        text = "x1 < x2 and not x3*x4 <= x5"
        truth = lambda v: v["x1"] < v["x2"] and not v["x3"] * v["x4"] <= v["x5"]
    elif template == "hidden_constant":
        dims = {"x1": d1, "x2": d2, "x3": _combine((p, d1), (1, d2), (1, mismatch()))}
        text = f"x3 = {k}*x1^{p}*x2"
        truth = lambda v: checks.rel_eq(v["x3"], k * v["x1"] ** p * v["x2"])
    elif template == "mixed_lt":
        dims = {"x1": d1, "x2": d2, "x3": _combine((1, d1), (1, d2), (1, mismatch()))}
        text = "x1*x2 < x3"
        truth = lambda v: v["x1"] * v["x2"] < v["x3"]
    else:
        raise ValueError(f"unknown template {template!r}")
    spec = {
        "system": list(system),
        "variables": {name: _dim_text(vec) for name, vec in dims.items()},
        "relation": text,
    }
    return spec, dims, truth


def prepare(seed: int, ctx) -> dict:
    rng = random.Random(f"{NAME}:{seed}")
    corpus = []
    for name, invariant, truth in FIXTURES:
        path = ctx.root / "fixtures" / f"{name}.json"
        raw = json.loads(path.read_text())
        dims = {v: dict(zip(raw["system"], checks.parse_dim(t, raw["system"])))
                for v, t in raw["variables"].items()}
        corpus.append((name, invariant, dsl.load_problem_spec(path), dims, truth))
    for template, invariant, count in GENERATED:
        for i in range(count):
            raw, dims, truth = generate(rng, template)
            spec = dsl.problem_spec_from_dict(raw, source=f"{template}#{i}")
            corpus.append((template, invariant, spec, dims, truth))
    return {"seed": seed, "corpus": corpus}


def check_setup(state) -> list[str]:
    return []


def round_ops(state, r: int) -> list[Op]:
    rng = random.Random(f"{NAME}:{state['seed']}:{r}")
    return [_op(entry, rng.randrange(2**31)) for entry in state["corpus"]]


def _op(entry, fuzz_seed: int) -> Op:
    name, invariant, spec, dims, truth = entry

    def run():
        return harness.fuzz_invariance(spec, TRIALS, seed=fuzz_seed)

    def check(report) -> list[str]:
        ce = report.counterexample
        found = None if ce is None else (ce.bindings, ce.factors, ce.before, ce.after)
        errors = checks.check_fuzz(invariant, truth, dims, report.trials, report.passed, found)
        return [f"{name} ({spec.relation_text}, seed {fuzz_seed}): {e}" for e in errors]

    return Op(name, run, check)


def layer_metrics(results, tracer) -> dict[str, float]:
    """Per call for dsl and rescale; per trial for a whole trial and its
    evaluations (shrinking excluded); per shrink for the shrinker."""
    out = {
        metric: tracer.median_call(metric.rsplit("_", 1)[0], 1e6)
        for metric in ("dsl.parse_relation_us", "dsl.typecheck_us", "dsl.evaluate_us",
                       "harness.rescale_us")
    }
    trial_s, evaluations, shrink_evals, shrink_s = [], [], [], []
    for _, latency, delta, _ in results:
        shrink_calls, shrink_time = delta["harness._shrink"]
        inner = delta["harness._shrink>dsl.evaluate"][0]
        trial_s.append((latency - shrink_time - delta["dsl.typecheck"][1]) / TRIALS)
        evaluations.append((delta["dsl.evaluate"][0] - inner) / TRIALS)
        if shrink_calls:
            shrink_evals.append(inner)
            shrink_s.append(shrink_time)
    out["harness.trial_us"] = statistics.median(trial_s) * 1e6
    out["harness.evaluate_calls"] = statistics.median(evaluations)
    out["harness.shrink_evaluations"] = statistics.median(shrink_evals)
    out["harness.shrink_ms"] = statistics.median(shrink_s) * 1e3
    return out
