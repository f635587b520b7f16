"""basis-ladder: the exact algebra on seeded dimension matrices.

One operation is pi_basis + special_basis + transition (canonical ->
special) + is_consistent on unit quantities, for one seeded integer
dimension matrix. A round holds many desk-scale problems and a few large
ones, so op_p50_ms reports a 3x6 problem while the 7x24 and 10x48 problems
carry ops_per_s.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

from piforge import core, pigroups, units

import checks
from common import Op

NAME = "basis-ladder"
# (label, fundamentals, variables, problems per round); about 10 s a round,
# 6.5 s of it the 10x48 problem, and enough 3x6 problems that the median
# operation is a mid-range 3x6 one. One problem's cost varies by about 10%
# with the draw at 7x24 and 10x48, and a run affords only two 10x48
# problems, so the large problems of round r are the same for every seed:
# the seed draws the 3x6 and 4x12 problems.
SIZES = (("3x6", 3, 6, 96), ("4x12", 4, 12, 16), ("7x24", 7, 24, 6), ("10x48", 10, 48, 1))
LARGE = ("7x24", "10x48")
ROUND_SECONDS = 10.0
EXPONENTS = (-2, -1, 1, 2)
DENSITY = 0.5

TRACED = (
    "exactlin.rref", "exactlin.kernel_basis", "pigroups.pi_basis",
    "pigroups.special_basis", "pigroups.transition", "units.is_consistent",
)
PER_CALL = ()
WATCH = {}
_TIMED = (
    ("exactlin.rref_ms", "exactlin.rref"),
    ("exactlin.kernel_basis_ms", "exactlin.kernel_basis"),
    ("pigroups.pi_basis_ms", "pigroups.pi_basis"),
    ("pigroups.special_basis_ms", "pigroups.special_basis"),
    ("pigroups.transition_ms", "pigroups.transition"),
    ("units.is_consistent_ms", "units.is_consistent"),
)
LAYER_METRICS = tuple(
    (f"{metric}.{label}", "ms") for label, *_ in SIZES for metric, _ in _TIMED
) + tuple((f"exactlin.rref_calls.{label}", "count") for label, *_ in SIZES)


def dimension_matrix(rng: random.Random, d: int, n: int) -> list[list[int]]:
    """d x n integer exponents; every variable has some dimension."""
    cols = []
    for _ in range(n):
        col = [0] * d
        while not any(col):
            col = [rng.choice(EXPONENTS) if rng.random() < DENSITY else 0 for _ in range(d)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def prepare(seed: int, ctx) -> dict:
    systems = {d: core.DimSystem(tuple(f"D{i}" for i in range(d))) for _, d, _, _ in SIZES}
    return {"seed": seed, "systems": systems}


def check_setup(state) -> list[str]:
    return []


def round_ops(state, r: int) -> list[Op]:
    """Each size's problems spread evenly through the round, so that the
    small ones, which set op_p50_ms, sample the whole round and not one
    short stretch of it."""
    seeded = random.Random(f"{NAME}:{state['seed']}:{r}")
    fixed = random.Random(f"{NAME}:large:{r}")
    placed = []
    for label, d, n, count in SIZES:
        system = state["systems"][d]
        rng = fixed if label in LARGE else seeded
        for i in range(count):
            matrix = dimension_matrix(rng, d, n)
            placed.append(((i + 0.5) / count, _op(label, system, matrix)))
    placed.sort(key=lambda item: item[0])
    return [op for _, op in placed]


def _op(label, system, matrix) -> Op:
    dims = [
        core.DimVector(system, tuple(Fraction(row[j]) for row in matrix))
        for j in range(len(matrix[0]))
    ]
    unit_quantities = [core.Quantity(0.0, w) for w in dims]

    def run():
        basis = pigroups.pi_basis(dims)
        special = pigroups.special_basis(dims)
        trans = pigroups.transition(basis, special.base)
        report = units.is_consistent(unit_quantities)
        return basis, special, trans, report

    def check(out) -> list[str]:
        basis, special, trans, report = out
        errors = checks.check_bases(
            matrix,
            [g.exponents for g in basis.groups],
            [g.exponents for g in special.base.groups],
            special.pivot_indices,
            special.free_indices,
            trans.matrix.to_rows(),
        )
        if not report.consistent:
            errors.append("unit quantities judged inconsistent")
        return [f"{label}: {e}" for e in errors]

    return Op(label, run, check)


def layer_metrics(results, tracer) -> dict[str, float]:
    """Per size: median over operations of the time spent in each function
    (calls nested inside it included) and of the rref call count."""
    out = {}
    for label, *_ in SIZES:
        deltas = [delta for tag, _, delta, _ in results if tag == label]
        for metric, fn in _TIMED:
            out[f"{metric}.{label}"] = statistics.median(dl[fn][1] for dl in deltas) * 1e3
        out[f"exactlin.rref_calls.{label}"] = statistics.median(dl["exactlin.rref"][0] for dl in deltas)
    return out

