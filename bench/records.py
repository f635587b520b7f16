"""pi-records: bases built once, then a long stream of records.

Set-up builds the canonical and the special basis of a handful of seeded
problems (n <= 12) and a consistent reference list for each. One operation
is one record: pi_values, equivalent against a rescaled copy and against a
perturbed copy, and canonical_rep. This is the float path in core and
nondim plus the exact re-checks made per record, the other way round from
basis-ladder.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

from piforge import core, nondim, pigroups

import checks
from common import Op

NAME = "pi-records"
# (fundamentals, variables, problems of that size); one record per problem
# per round. A record's cost depends on its problem's draw, so there are
# many problems, and 4x10 ones hold the middle half of the records: the
# median record is a 4x10 one, averaged over eight draws.
PROBLEMS = ((3, 6, 3), (4, 10, 8), (4, 12, 3), (5, 12, 2))
ROUND_SECONDS = 0.12
LOG_MAG = (math.log(1e-3), math.log(1e3))
LOG_FACTOR = (math.log(1e-2), math.log(1e2))
PERTURB = (0.05, 0.5)

TRACED = ("nondim.pi_values", "nondim.equivalent", "nondim.canonical_rep",
          "units.is_consistent", "core.dim_combine", "exactlin.rref")
PER_CALL = ("nondim.pi_values", "nondim.equivalent", "nondim.canonical_rep", "units.is_consistent")
WATCH = {}
LAYER_METRICS = (
    ("nondim.pi_values_us", "us"),
    ("nondim.equivalent_us", "us"),
    ("nondim.canonical_rep_us", "us"),
    ("units.is_consistent_us", "us"),
    ("core.dim_combine_calls", "count"),
    ("exactlin.rref_calls", "count"),
)


def _problem(rng: random.Random, d: int, n: int) -> list[list[int]]:
    """A full-rank d x n integer dimension matrix of nonzero small exponents."""
    while True:
        matrix = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(d)]
        if checks.rank(matrix) == d:
            return matrix


def prepare(seed: int, ctx) -> dict:
    rng = random.Random(f"{NAME}:{seed}")
    problems = []
    for d, n in (size for *size, count in PROBLEMS for _ in range(count)):
        matrix = _problem(rng, d, n)
        system = core.DimSystem(tuple(f"D{i}" for i in range(d)))
        dims = [core.DimVector(system, tuple(Fraction(row[j]) for row in matrix)) for j in range(n)]
        # A coherent unit system: ref_j = prod_i u_i ^ D[i][j], so every
        # dimensionless product of the reference list is exactly 1.
        log_units = [rng.uniform(-2.0, 2.0) for _ in range(d)]
        ref_logs = [sum(matrix[i][j] * log_units[i] for i in range(d)) for j in range(n)]
        problems.append({
            "matrix": matrix,
            "dims": dims,
            "basis": pigroups.pi_basis(dims),
            "special": pigroups.special_basis(dims),
            "ref_logs": ref_logs,
            "ref": [core.Quantity(v, w) for v, w in zip(ref_logs, dims)],
        })
    return {"seed": seed, "problems": problems}


def check_setup(state) -> list[str]:
    """The reused bases are the unique answer; kept facts for the records."""
    errors = []
    for k, p in enumerate(state["problems"]):
        canonical = [g.exponents for g in p["basis"].groups]
        errors += [f"problem {k}: {e}" for e in checks.check_bases(
            p["matrix"], canonical, [g.exponents for g in p["special"].base.groups],
            p["special"].pivot_indices, p["special"].free_indices)]
        p["groups"] = canonical
        p["pivots"] = checks.first_independent(p["matrix"])
        p["used"] = checks.used_slots(p["matrix"])
    return errors


def round_ops(state, r: int) -> list[Op]:
    rng = random.Random(f"{NAME}:{state['seed']}:{r}")
    return [_op(rng, str(k), p) for k, p in enumerate(state["problems"])]


def _op(rng: random.Random, tag: str, p) -> Op:
    matrix, dims = p["matrix"], p["dims"]
    n = len(dims)
    xs = [rng.uniform(*LOG_MAG) for _ in range(n)]
    log_factors = [rng.uniform(*LOG_FACTOR) for _ in matrix]
    ys = [x + sum(row[j] * f for row, f in zip(matrix, log_factors)) for j, x in enumerate(xs)]
    zs = list(xs)
    zs[rng.choice(p["used"])] += rng.choice((-1.0, 1.0)) * rng.uniform(*PERTURB)
    xq, yq, zq = ([core.Quantity(v, w) for v, w in zip(vs, dims)] for vs in (xs, ys, zs))
    basis, special, ref = p["basis"], p["special"], p["ref"]

    def run():
        values = nondim.pi_values(basis, xq)
        same = nondim.equivalent(basis, xq, yq)
        differs = nondim.equivalent(basis, xq, zq)
        rep = nondim.canonical_rep(special, ref, xq)
        return values, same, differs, rep

    def check(out) -> list[str]:
        values, same, differs, rep = out
        errors = checks.check_record(
            p["groups"], xs, ys, values.log_values, same.equivalent, differs.equivalent,
            [q.log_magnitude for q in rep], p["ref_logs"], p["pivots"],
        )
        return [f"problem {tag}: {e}" for e in errors]

    return Op(tag, run, check)


def layer_metrics(results, tracer) -> dict[str, float]:
    """Per call for the nondim and units functions; per record for counts."""
    out = {
        metric: tracer.median_call(metric.rsplit("_", 1)[0], 1e6)
        for metric, unit in LAYER_METRICS if unit == "us"
    }
    for metric, fn in (("core.dim_combine_calls", "core.dim_combine"),
                       ("exactlin.rref_calls", "exactlin.rref")):
        out[metric] = statistics.median(delta[fn][0] for _, _, delta, _ in results)
    return out
