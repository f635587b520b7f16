"""Shared generators, oracles, and CLI drivers for the test suite."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from hashlib import blake2b
from itertools import count, product
from pathlib import Path

from piforge import harness
from piforge.core import DEFAULT_TOL, DimSystem, DimVector, Quantity, check_tol, dimension_matrix
from piforge.dsl import (
    BOOL,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    LINEAR,
    LOG,
    Not,
    Pow,
    TRUTH,
    Var,
    compile_relation,
    evaluate,
    log_eq_bound,
    print_relation,
    typecheck,
)
from piforge.errors import (
    DimensionError,
    DimensionMismatchError,
    EvaluationError,
    NoSolutionError,
    SingularMatrixError,
    SpecError,
)
from piforge.exactlin import QMatrix, rref

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def mass_spring_dims():
    system = DimSystem(("M", "T"))
    m = DimVector.unit(system, "M")
    t = DimVector.unit(system, "T")
    return system, (m, m / t**2, t)


def kinematics_dims():
    system = DimSystem(("L", "T"))
    length = DimVector.unit(system, "L")
    time = DimVector.unit(system, "T")
    return system, (length, time, length / time)


def random_dims(rng: random.Random, max_n=8, max_d=4, lo=-3, hi=3, min_n=1):
    """A random dimension system and dimension list with integer exponents."""
    d = rng.randint(1, max_d)
    n = rng.randint(min_n, max_n)
    system = DimSystem(tuple(f"D{i}" for i in range(d)))
    dims = tuple(
        DimVector(system, tuple(Fraction(rng.randint(lo, hi)) for _ in range(d)))
        for _ in range(n)
    )
    return system, dims


def random_rational_dims(rng: random.Random, d: int, n: int):
    """A d-fundamental system and n dimensions with rational exponents.

    Some fundamentals go unused (zero rows of the dimension matrix) and some
    variables are dimensionless (zero columns), about half of the remaining
    entries are zero, and the rest are p/q with |p| <= 3 and q in 1..3.
    """
    system = DimSystem(tuple(f"D{i}" for i in range(d)))
    unused = {i for i in range(d) if rng.random() < 0.15}
    dims = []
    for _ in range(n):
        dimensionless = rng.random() < 0.1
        exps = tuple(
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
            if not dimensionless and i not in unused and rng.random() < 0.5
            else Fraction(0)
            for i in range(d)
        )
        dims.append(DimVector(system, exps))
    return system, tuple(dims)


def ladder_dims(rng: random.Random, d: int, n: int):
    """The benchmark ladder's problem shape: exponents from -2, -1, 1, 2 at
    density 1/2, every variable with some dimension."""
    system = DimSystem(tuple(f"D{i}" for i in range(d)))
    dims = []
    while len(dims) < n:
        exps = tuple(
            Fraction(rng.choice((-2, -1, 1, 2))) if rng.random() < 0.5 else Fraction(0)
            for _ in range(d)
        )
        if any(exps):
            dims.append(DimVector(system, exps))
    return tuple(dims)


LADDER_SIZES = ((3, 6), (4, 12), (7, 24), (10, 48))


def seeded_systems(count: int = 500, seed: int = 2024):
    """`count` seeded rational systems for the Fraction-reference checks: the
    first of the 10x48 shape, every 50th after it 7x24, the rest up to 5x12
    (so r = 0 occurs among them). One Fraction transition at 10x48 costs
    seconds, so the large shapes are few."""
    rng = random.Random(seed)
    for i in range(count):
        if i == 0:
            d, n = 10, 48
        elif i % 50 == 0:
            d, n = 7, 24
        else:
            d, n = rng.randint(1, 5), rng.randint(1, 12)
        yield random_rational_dims(rng, d, n)


def random_quantities(rng: random.Random, dims, lo=1e-3, hi=1e3):
    return [
        Quantity(rng.uniform(math.log(lo), math.log(hi)), dim) for dim in dims
    ]


def random_matrix(rng: random.Random, rows: int, cols: int, lo=-3, hi=3) -> QMatrix:
    return QMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng: random.Random, n: int, lo=-2, hi=2) -> QMatrix:
    while True:
        m = random_matrix(rng, n, n, lo, hi)
        if rref(m)[2] == n:
            return m


# --- Fraction references ---------------------------------------------------
#
# The straightforward Fraction versions of the exact algebra: Gauss-Jordan on
# Fraction rows, one solve per right-hand side. The library's integer-row
# elimination and single-elimination builders must agree with them entry for
# entry.


def reference_rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Fraction Gauss-Jordan elimination, first nonzero entry as pivot."""
    work = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivot_cols: list[int] = []
    piv_row = 0
    for col in range(ncols):
        if piv_row >= nrows:
            break
        sel = None
        for r in range(piv_row, nrows):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_row:
            work[piv_row], work[sel] = work[sel], work[piv_row]
        pivot = work[piv_row][col]
        if pivot != 1:
            work[piv_row] = [v / pivot for v in work[piv_row]]
        for r in range(nrows):
            if r == piv_row:
                continue
            factor = work[r][col]
            if factor != 0:
                work[r] = [a - factor * b for a, b in zip(work[r], work[piv_row])]
        pivot_cols.append(col)
        piv_row += 1
    reduced = QMatrix.from_rows(work) if nrows else QMatrix.zero(0, ncols)
    return reduced, tuple(pivot_cols), len(pivot_cols)


def reference_solve(a: QMatrix, b) -> tuple[Fraction, ...]:
    """a x = b by one Fraction elimination of [a | b], free variables at 0."""
    if a.rows == 0:
        return (Fraction(0),) * a.cols
    augmented = QMatrix.from_rows([list(a.row(i)) + [b[i]] for i in range(a.rows)])
    reduced, pivot_cols, _ = reference_rref(augmented)
    if a.cols in pivot_cols:
        raise NoSolutionError("right-hand side is outside the column space")
    x = [Fraction(0)] * a.cols
    for row_idx, pc in enumerate(pivot_cols):
        x[pc] = reduced.at(row_idx, a.cols)
    return tuple(x)


def reference_invert(m: QMatrix) -> QMatrix:
    """Inverse by Fraction elimination of [m | I]."""
    n = m.rows
    if n == 0:
        return m
    augmented = QMatrix.from_rows(
        [list(m.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
    )
    reduced, pivot_cols, _ = reference_rref(augmented)
    if pivot_cols[:n] != tuple(range(n)):
        raise SingularMatrixError("singular")
    return QMatrix.from_rows([[reduced.at(i, n + j) for j in range(n)] for i in range(n)])


def reference_special_basis(dims):
    """(pivot_cols, free_cols, groups) with one solve per free column: the
    group for free slot l is x_l divided by the pivot combination of w_l."""
    matrix = dimension_matrix(dims[0].system, dims)
    _, pivot_cols, _ = reference_rref(matrix)
    free_cols = tuple(i for i in range(len(dims)) if i not in pivot_cols)
    pivot_matrix = QMatrix.from_rows(
        [[matrix.at(i, j) for j in pivot_cols] for i in range(matrix.rows)]
    )
    groups = []
    for free in free_cols:
        lambdas = reference_solve(pivot_matrix, matrix.col(free))
        coeffs = [Fraction(0)] * len(dims)
        coeffs[free] = Fraction(1)
        for pc, lam in zip(pivot_cols, lambdas):
            coeffs[pc] = -lam
        groups.append(tuple(coeffs))
    return pivot_cols, free_cols, tuple(groups)


def reference_transition(psi_groups, pi_groups) -> tuple[QMatrix, QMatrix]:
    """(matrix, inverse) with one solve per target group: row i holds the
    coefficients of pi_groups[i] over psi_groups."""
    if not psi_groups:
        return QMatrix.identity(0), QMatrix.identity(0)
    columns = QMatrix.from_rows([list(g.exponents) for g in psi_groups]).transpose()
    matrix = QMatrix.from_rows(
        [list(reference_solve(columns, g.exponents)) for g in pi_groups]
    )
    return matrix, reference_invert(matrix)


def _dot(u, v) -> float:
    return math.fsum(a * b for a, b in zip(u, v))


def reference_residual(vec, rows) -> list[float]:
    """The residual of the generated orbit-gap code (`core._orbit_gap_maker`),
    which `core.row_space` and `core.orbit_gap_kernel` both run, as a loop
    over the rows with its dot product as a generator over zip."""
    for u in rows:
        c = _dot(vec, u)
        vec = [a - c * b for a, b in zip(vec, u)]
    return vec


def reference_row_space(reduction) -> tuple[tuple[float, ...], ...]:
    """`core.row_space` over `reference_residual`."""
    rows = []
    for row, pc in zip(reduction.int_rows, reduction.pivot_cols):
        row = reference_residual([v / row[pc] for v in row], rows)
        norm = math.hypot(*row)
        rows.append(tuple(a / norm for a in row))
    return tuple(rows)


def reference_orbit_gap(rows, logs) -> float:
    """The distance of logs from the span of the orthonormal rows, as
    `hypot` of `reference_residual`: the reference for
    `core.orbit_gap_kernel`."""
    return math.hypot(*reference_residual(logs, rows))


def oracle_equivalent(xs, ys, tol: float = DEFAULT_TOL) -> bool:
    """Independent equivalence test: the log-ratio vector must lie in the row
    space of the dimension matrix.

    The row-space basis is exact (`reference_rref`, at most d rows); only
    the final projection uses floating point. The rows are orthonormalized
    by modified Gram-Schmidt and the log-ratio vector loses its component
    along each, which leaves the least-squares residual.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys) or any(x.dim != y.dim for x, y in zip(xs, ys)):
        raise DimensionMismatchError("oracle needs slotwise equal dimensions")
    matrix = dimension_matrix(xs[0].dim.system, [x.dim for x in xs])
    reduced, _, rank = reference_rref(matrix)
    orthonormal = []
    for i in range(rank):
        row = [float(v) for v in reduced.row(i)]
        for u in orthonormal:
            c = _dot(row, u)
            row = [a - c * b for a, b in zip(row, u)]
        norm = math.sqrt(_dot(row, row))
        orthonormal.append([a / norm for a in row])
    residual = [y.log_magnitude - x.log_magnitude for x, y in zip(xs, ys)]
    for u in orthonormal:
        c = _dot(residual, u)
        residual = [a - c * b for a, b in zip(residual, u)]
    return math.sqrt(_dot(residual, residual)) <= tol


def apply_change_of_basis(matrix: QMatrix, groups):
    """New group i = sum_j matrix[i][j] * groups[j], on coefficient vectors."""
    from piforge.core import Monomial

    n = groups[0].arity
    out = []
    for i in range(matrix.rows):
        coeffs = [Fraction(0)] * n
        for j, g in enumerate(groups):
            factor = matrix.at(i, j)
            if factor == 0:
                continue
            for k in range(n):
                coeffs[k] += factor * g.exponents[k]
        out.append(Monomial(tuple(coeffs)))
    return tuple(out)


def brute_force_integer_kernel(matrix: QMatrix, bound: int):
    """All nonzero integer vectors v with entries in [-bound, bound] and m v = 0."""
    hits = []
    for candidate in product(range(-bound, bound + 1), repeat=matrix.cols):
        if all(c == 0 for c in candidate):
            continue
        if all(v == 0 for v in matrix.mul_vec(candidate)):
            hits.append(candidate)
    return hits


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv, env_extra=None, stdout=subprocess.PIPE, timeout=None):
    """Run the CLI as a subprocess from the repo root, registry env cleared;
    stdout is captured unless another file descriptor is given."""
    env = os.environ.copy()
    env.pop("PIFORGE_REGISTRY", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "piforge.cli", *argv],
        cwd=ROOT,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=timeout,
    )


# (golden file, argv, expected exit code) — pinned CLI behavior
GOLDEN_CASES = [
    ("pi_mass_spring.txt", ["pi", "--spec", "fixtures/mass_spring.json"], 0),
    ("pi_mass_spring.json", ["pi", "--spec", "fixtures/mass_spring.json", "--json"], 0),
    ("pi_independent_dims.txt", ["pi", "--spec", "fixtures/independent_dims.json"], 0),
    ("pi_electronics.txt", ["pi", "--spec", "fixtures/electronics.json"], 0),
    (
        "consistent_electronics.txt",
        ["consistent", "V", "A", "ohm", "s", "F", "--registry", "fixtures/registry.json"],
        0,
    ),
    (
        "consistent_electronics.json",
        ["consistent", "V", "A", "ohm", "s", "F", "--registry", "fixtures/registry.json", "--json"],
        0,
    ),
    (
        "consistent_clash.txt",
        ["consistent", "cm", "hr", "knot", "--registry", "fixtures/registry.json"],
        1,
    ),
    (
        "consistent_clash.json",
        ["consistent", "cm", "hr", "knot", "--registry", "fixtures/registry.json", "--json"],
        1,
    ),
    (
        "verify_newton.txt",
        ["verify", "--spec", "fixtures/newton.json", "--trials", "10000", "--seed", "0"],
        0,
    ),
    (
        "verify_hidden_constant.txt",
        ["verify", "--spec", "fixtures/hidden_constant.json", "--trials", "10000", "--seed", "0"],
        1,
    ),
    (
        "verify_hidden_constant_seed1.txt",
        ["verify", "--spec", "fixtures/hidden_constant.json", "--trials", "10000", "--seed", "1"],
        1,
    ),
    (
        "verify_hidden_constant_seed2.txt",
        ["verify", "--spec", "fixtures/hidden_constant.json", "--trials", "10000", "--seed", "2"],
        1,
    ),
    (
        "verify_hidden_constant.json",
        ["verify", "--spec", "fixtures/hidden_constant.json", "--trials", "10000", "--seed", "0", "--json"],
        1,
    ),
    (
        "verify_light_three_var.txt",
        ["verify", "--spec", "fixtures/light_three_var.json", "--trials", "10000", "--seed", "0"],
        0,
    ),
    (
        "nondim_mass_spring.txt",
        ["nondim", "--spec", "fixtures/mass_spring.json", "fixtures/mass_spring_bindings.json"],
        0,
    ),
    ("check_hidden_constant.txt", ["check", "--spec", "fixtures/hidden_constant.json"], 1),
    ("check_hidden_constant.json", ["check", "--spec", "fixtures/hidden_constant.json", "--json"], 1),
    ("check_mass_spring.txt", ["check", "--spec", "fixtures/mass_spring.json"], 0),
    ("check_mass_spring.json", ["check", "--spec", "fixtures/mass_spring.json", "--json"], 0),
    ("check_newton.txt", ["check", "--spec", "fixtures/newton.json"], 0),
    ("check_newton.json", ["check", "--spec", "fixtures/newton.json", "--json"], 0),
]


# --- Fuzz-corpus relation shapes ------------------------------------------
#
# The relation shapes of the benchmark's fuzz corpus, rewritten here, not
# imported from the benchmark.

CORPUS_SYSTEM = DimSystem(("M", "L", "T"))
CORPUS_TEMPLATES = (
    "power_lt", "seeded_eq", "sum_le", "log_sin", "bool_mix", "hidden_constant", "mixed_lt",
)


def corpus_dim(rng: random.Random) -> DimVector:
    """A nonzero dimension over CORPUS_SYSTEM, exponents in -2..2."""
    while True:
        exps = tuple(Fraction(rng.randint(-2, 2)) for _ in CORPUS_SYSTEM.names)
        if any(exps):
            return DimVector(CORPUS_SYSTEM, exps)


def _corpus_mismatch(rng: random.Random) -> DimVector:
    exps = [Fraction(0)] * CORPUS_SYSTEM.size
    for axis in rng.sample(range(CORPUS_SYSTEM.size), 2):
        exps[axis] = Fraction(rng.choice((-2, 2)))
    return DimVector(CORPUS_SYSTEM, tuple(exps))


def corpus_relation(rng: random.Random, template: str):
    """(relation text, {variable: dimension}) in one of the corpus shapes."""
    p, q = rng.randint(1, 3), rng.randint(1, 2)
    k = round(rng.uniform(0.5, 20.0), 3)
    d1, d2, d4 = corpus_dim(rng), corpus_dim(rng), corpus_dim(rng)
    if template == "power_lt":
        return f"x1^{p}*x2^{q} < x3", {"x1": d1, "x2": d2, "x3": d1**p * d2**q}
    if template == "seeded_eq":
        return f"x3 = {k}*x1^{p}/x2^{q}", {"x1": d1, "x2": d2, "x3": d1**p / d2**q}
    if template == "sum_le":
        d12 = d1 * d2
        dims = {"x1": d1, "x2": d2, "x3": d12, "x4": d4, "x5": d12 / d4}
        return "x1*x2 + x3 <= x4*x5", dims
    if template == "log_sin":
        dims = {"x1": d1, "x2": d2, "x3": d1**p * d2, "x4": d4, "x5": d4}
        return f"log(x1^{p}*x2/x3) < sin(x4/x5)", dims
    if template == "bool_mix":
        dims = {"x1": d1, "x2": d1, "x3": d2, "x4": d4, "x5": d2 * d4}
        return "x1 < x2 and not x3*x4 <= x5", dims
    if template == "hidden_constant":
        dims = {"x1": d1, "x2": d2, "x3": d1**p * d2 * _corpus_mismatch(rng)}
        return f"x3 = {k}*x1^{p}*x2", dims
    if template == "mixed_lt":
        return "x1*x2 < x3", {"x1": d1, "x2": d2, "x3": d1 * d2 * _corpus_mismatch(rng)}
    raise ValueError(template)


# --- Typechecking reference -------------------------------------------------


def reference_typecheck(node, env: dict[str, DimVector], *, allow_mixed_comparisons=False,
                        sides=None):
    """The typing rules as a walk over the AST through `DimVector`
    arithmetic, exact Fractions at every node. `dsl.typecheck` must return
    an equal result, fill `sides` alike, and raise the same error with the
    same message, node and dimensions."""
    system = next(iter(env.values())).system if env else None

    def need_dim(n, t):
        if t is BOOL:
            raise DimensionError("boolean value used where a quantity is required", node=n)
        return t

    def check(n):
        match n:
            case Var(name):
                if name not in env:
                    raise DimensionError(f"unbound variable {name!r}", node=n)
                return env[name]
            case Const():
                if system is None:
                    raise DimensionError("no dimension system in scope", node=n)
                return DimVector.zero(system)
            case BinOp(op, left, right):
                lt, rt = check(left), check(right)
                need_dim(n, lt), need_dim(n, rt)
                if op in ("+", "-"):
                    if lt != rt:
                        raise DimensionError(
                            f"'{op}' needs equal dimensions: {lt} vs {rt}",
                            node=n, left=lt, right=rt,
                        )
                    return lt
                return lt * rt if op == "*" else lt / rt
            case Pow(base, exponent):
                return need_dim(n, check(base)) ** exponent
            case Call(func, arg):
                at = need_dim(n, check(arg))
                if func == "sqrt":
                    return at ** Fraction(1, 2)
                if not at.is_zero():
                    raise DimensionError(
                        f"{func} needs a dimensionless operand, got {at}", node=n, left=at,
                    )
                return BOOL if func == "is_pos_int" else at
            case Compare(op, left, right):
                lt, rt = check(left), check(right)
                need_dim(n, lt), need_dim(n, rt)
                if lt != rt and not allow_mixed_comparisons:
                    raise DimensionError(
                        f"'{op}' compares different dimensions: {lt} vs {rt}",
                        node=n, left=lt, right=rt,
                    )
                if sides is not None:
                    sides.append((lt, rt))
                return BOOL
            case BoolOp(op, left, right):
                for side in (left, right):
                    if check(side) is not BOOL:
                        raise DimensionError(f"'{op}' needs boolean operands", node=n)
                return BOOL
            case Not(operand):
                if check(operand) is not BOOL:
                    raise DimensionError("'not' needs a boolean operand", node=n)
                return BOOL
        raise TypeError(f"not a relation node: {n!r}")

    return check(node)


def reference_free_variables(node) -> set[str]:
    """The variables of a relation, by `match` class patterns, which accept
    an instance of a subclass of a node class as that node, where
    `dsl.free_variables` takes exactly the eight node classes."""
    match node:
        case Var(name):
            return {name}
        case Const():
            return set()
        case BinOp(_, left, right) | Compare(_, left, right) | BoolOp(_, left, right):
            return reference_free_variables(left) | reference_free_variables(right)
        case Pow(base, _):
            return reference_free_variables(base)
        case Call(_, arg):
            return reference_free_variables(arg)
        case Not(operand):
            return reference_free_variables(operand)
    raise TypeError(f"not a relation node: {node!r}")


# The interval rules `enclose.enclose` follows, written out here so that a
# fault in its own helpers shows: a bound widens by 2^-40 of itself at each
# step, a log bound beyond +-700 is unproven, and so is a linear bound that
# is not finite. A truth value is (TRUTH, must, may): whether it holds at
# every point of the box, and whether it may hold at some point.
_REFERENCE_LOG_LIMIT = 700.0
_REFERENCE_WIDENING = 2.0**-40


def _widened(lo, hi):
    return lo - abs(lo) * _REFERENCE_WIDENING, hi + abs(hi) * _REFERENCE_WIDENING


def _reference_log(lo, hi):
    lo, hi = _widened(lo, hi)
    return (LOG, lo, hi) if -_REFERENCE_LOG_LIMIT <= lo and hi <= _REFERENCE_LOG_LIMIT else None


def _reference_linear(lo, hi):
    lo, hi = _widened(lo, hi)
    return (LINEAR, lo, hi) if -math.inf < lo and hi < math.inf else None


def _reference_to(space, b):
    """Bounds b in space, LOG or LINEAR; None where b is no bound or a
    truth value, or may be non-positive where its log is taken."""
    if b is None or b[0] == TRUTH:
        return None
    if b[0] == space:
        return b
    _, lo, hi = b
    if space == LOG:
        return _reference_log(math.log(lo), math.log(hi)) if lo > 0 else None
    return _reference_linear(math.exp(lo), math.exp(hi))


def _abs_range(lo, hi):
    """(least, greatest) of |v| for v in [lo, hi]."""
    least = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return least, max(abs(lo), abs(hi))


def _reference_compare(op, a, b, tol):
    """(TRUTH, must, may) of `a op b`: both sides in log space where both
    are, else both in linear space."""
    if a is None or b is None or TRUTH in (a[0], b[0]):
        return None
    space = LOG if a[0] == b[0] == LOG else LINEAR
    (_, alo, ahi), (_, blo, bhi) = _reference_to(space, a), _reference_to(space, b)
    match op:
        case "<":
            return TRUTH, ahi < blo, alo < bhi
        case "<=":
            return TRUTH, ahi <= blo, alo <= bhi
    gap = _reference_linear(alo - bhi, ahi - blo)
    if gap is None:
        return TRUTH, False, True
    least, greatest = _abs_range(gap[1], gap[2])
    if space == LOG:
        bound = log_eq_bound(tol)
        return TRUTH, greatest <= bound, least <= bound
    # max(|a|, |b|) is at least the larger of the two least magnitudes and
    # at most the larger of the two greatest
    (a_least, a_most), (b_least, b_most) = _abs_range(alo, ahi), _abs_range(blo, bhi)
    return (TRUTH, greatest <= tol * max(a_least, b_least) * (1 - _REFERENCE_WIDENING),
            least <= tol * max(a_most, b_most) * (1 + _REFERENCE_WIDENING))


def _reference_is_pos_int(lo, hi, tol):
    """(TRUTH, must, may): every point of [lo, hi] has n = round(lo) >= 1
    for its nearest integer, or some point may; a range spanning two
    nearest integers, one of them positive, is undecided."""
    n = round(lo)
    if round(hi) < 1:
        return TRUTH, False, False
    if round(hi) != n:
        return TRUTH, False, True
    least, greatest = _abs_range(lo - n, hi - n)
    return TRUTH, greatest <= tol, least <= tol


def reference_bounds(node, box, tol):
    """`enclose.enclose` as one `match` over the node, each rule stating its
    own spaces. On a tree of instances of exactly the eight node classes,
    and on anything that is no node, `enclose` must give an equal result,
    floats equal by `==`, or raise the same error."""
    log_, linear, to = _reference_log, _reference_linear, _reference_to

    def walk(node):
        return reference_bounds(node, box, tol)

    def truth(b):
        return b if b is not None and b[0] == TRUTH else None

    match node:
        case Var(name) if name in box:
            return log_(*box[name])
        case Const(value, _):
            return log_(math.log(value), math.log(value))
        case BinOp("*" | "/" | "+" | "-" as op, left, right):
            space = LOG if op in ("*", "/") else LINEAR
            a, b = to(space, walk(left)), to(space, walk(right))
            if a is None or b is None:
                return None
            make = log_ if space == LOG else linear
            if op in ("*", "+"):
                return make(a[1] + b[1], a[2] + b[2])
            return make(a[1] - b[2], a[2] - b[1])
        case Pow(base, exponent):
            a = to(LOG, walk(base))
            try:
                e = float(exponent)
            except (OverflowError, TypeError):
                return None
            return a and log_(*sorted((a[1] * e, a[2] * e)))
        case Call("sqrt", arg):
            a = to(LOG, walk(arg))
            return a and log_(a[1] * 0.5, a[2] * 0.5)
        case Call("is_pos_int", arg):
            a = to(LINEAR, walk(arg))
            return a and _reference_is_pos_int(a[1], a[2], tol)
        case Call("log", arg):
            a = to(LINEAR, walk(arg))
            return a and a[1] > 0 and linear(math.log(a[1]), math.log(a[2])) or None
        case Call("exp", arg):
            a = to(LINEAR, walk(arg))
            return a and to(LINEAR, log_(a[1], a[2]))
        case Call("sin" | "cos", arg):
            return to(LINEAR, walk(arg)) and (LINEAR, -1.0, 1.0)
        case Compare("=" | "<" | "<=" as op, left, right):
            return _reference_compare(op, walk(left), walk(right), tol)
        case BoolOp("and" | "or" as op, left, right):
            a = truth(walk(left))
            b = a and truth(walk(right))
            if b is None:
                return None
            if op == "and":
                return TRUTH, a[1] and b[1], a[2] and b[2]
            return TRUTH, a[1] or b[1], a[2] or b[2]
        case Not(operand):
            a = truth(walk(operand))
            return a and (TRUTH, not a[2], not a[1])
    return None


# --- Float reference --------------------------------------------------------


def reference_log_combine(exponents, logs) -> float:
    """The log magnitude of a product of powers, summed term by term: from
    0.0, float(e) * log for each nonzero exponent in index order. The float
    path must match it bit for bit."""
    total = 0.0
    for e, log in zip(exponents, logs):
        if e != 0:
            total += float(e) * log
    return total


# --- Tree-walking evaluator -------------------------------------------------


class _Linear:
    """A linear-space intermediate that may be non-positive (sums, sin/cos)."""

    def __init__(self, value: float, dim: DimVector):
        self.value = value
        self.dim = dim


def _to_quantity(v, node) -> Quantity:
    if isinstance(v, Quantity):
        return v
    if isinstance(v, _Linear):
        if v.value > 0 and math.isfinite(v.value):
            return Quantity(math.log(v.value), v.dim)
        raise EvaluationError(
            f"non-positive value {v.value!r} in multiplicative context: {print_relation(node)}"
        )
    raise EvaluationError(f"boolean used as a quantity in {print_relation(node)}")


def _to_linear(v) -> _Linear:
    if isinstance(v, Quantity):
        return _Linear(v.magnitude, v.dim)
    return v


def _reference_linear_equal(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol*max(|a|, |b|) for finite a and b: the float test where
    the gap and the bound are numbers, else from the sides' sizes. A gap past
    the float range means opposite signs, where the rule reads
    min(|a|, |b|) <= (tol - 1)*max(|a|, |b|), taken in Fractions; a NaN
    bound is inf*0, both sides 0, and any tol holds for them."""
    gap, bound = abs(a - b), tol * max(abs(a), abs(b))
    if math.isnan(bound):
        return a == b == 0
    if gap != math.inf:
        return gap <= bound
    small, large = sorted((abs(a), abs(b)))
    return tol == math.inf or Fraction(small) <= (Fraction(tol) - 1) * Fraction(large)


def reference_evaluate(node, bindings: dict[str, Quantity], tol: float = DEFAULT_TOL):
    """The relation evaluator as a walk over the AST through Quantity and
    exact dimensions, comparing every pair of sides in linear space. The
    compiled `dsl.evaluate` must give the same verdicts, and bit-identical
    Quantity results, wherever this one does not overflow."""
    result = _reference_run(node, bindings, tol)
    if isinstance(result, _Linear):
        return _to_quantity(result, node)
    return result


def _reference_run(node, bindings: dict[str, Quantity], tol: float):
    """`reference_evaluate` before a linear result is taken back to a
    Quantity: a Quantity, a _Linear or a bool."""
    system = next(iter(bindings.values())).dim.system if bindings else None

    def run(n):
        match n:
            case Var(name):
                return bindings[name]
            case Const(value, _):
                return Quantity(math.log(value), DimVector.zero(system))
            case BinOp(op, left, right):
                if op in ("*", "/"):
                    lq = _to_quantity(run(left), left)
                    rq = _to_quantity(run(right), right)
                    return lq * rq if op == "*" else lq / rq
                lv, rv = _to_linear(run(left)), _to_linear(run(right))
                value = lv.value + rv.value if op == "+" else lv.value - rv.value
                return _Linear(value, lv.dim)
            case Pow(base, exponent):
                return _to_quantity(run(base), base) ** exponent
            case Call(func, arg):
                if func == "sqrt":
                    return _to_quantity(run(arg), arg) ** Fraction(1, 2)
                av = _to_linear(run(arg)).value
                if func == "is_pos_int":
                    nearest = round(av)
                    return abs(av - nearest) <= tol and nearest >= 1
                if func == "exp":
                    return _Linear(math.exp(av), DimVector.zero(system))
                if func == "log":
                    if av <= 0:
                        raise EvaluationError(f"log of non-positive value {av!r}")
                    return _Linear(math.log(av), DimVector.zero(system))
                if func == "sin":
                    return _Linear(math.sin(av), DimVector.zero(system))
                return _Linear(math.cos(av), DimVector.zero(system))
            case Compare(op, left, right):
                lv, rv = _to_linear(run(left)), _to_linear(run(right))
                if op == "=":
                    return _reference_linear_equal(lv.value, rv.value, tol)
                if op == "<":
                    return lv.value < rv.value
                return lv.value <= rv.value
            case BoolOp(op, left, right):
                if op == "and":
                    return run(left) and run(right)
                return run(left) or run(right)
            case Not(operand):
                return not run(operand)
        raise TypeError(f"not a relation node: {n!r}")

    return run(node)


# --- Quantity-based fuzzer ----------------------------------------------------


class _Undecided(Exception):
    pass


def _reference_nodes(node) -> int:
    """The nodes of a quantity-valued expression."""
    if isinstance(node, BinOp):
        return 1 + _reference_nodes(node.left) + _reference_nodes(node.right)
    if isinstance(node, (Pow, Call)):
        return 1 + _reference_nodes(node.base if isinstance(node, Pow) else node.arg)
    return 1


def _reference_side(node, bindings, tol) -> tuple[int, Fraction]:
    """(sign, exact log of the absolute value) of a side, from the
    tree-walking evaluator; a value beyond the float range leaves the domain."""
    try:
        value = _reference_run(node, bindings, tol)
        if isinstance(value, _Linear):
            if not math.isfinite(value.value):
                raise ValueError
            if value.value == 0:
                return 0, Fraction(0)
            sign = 1 if value.value > 0 else -1
            value = Quantity(math.log(abs(value.value)), value.dim)
        else:
            sign = 1
    except (ValueError, OverflowError):
        raise EvaluationError("a value overflows the float range, about 1.8e+308") from None
    return sign, Fraction(value.log_magnitude)


def _reference_mixed(node, env, bindings, log_factors, tol) -> bool:
    """A comparison of two dimensions rescaled by log_factors (None: not
    rescaled), from its sides' signs and its exact log gap. Within a
    first-order rounding bound of the gap where the verdict flips, it is
    undecided."""
    sl, ll = _reference_side(node.left, bindings, tol)
    sr, lr = _reference_side(node.right, bindings, tol)
    if node.op != "=" and (sl != sr or sl == 0):
        return sl < sr if node.op == "<" else sl <= sr
    if node.op == "=" and sl * sr == 0:
        return sl == sr or tol >= 1
    w = (typecheck(node.left, env) / typecheck(node.right, env)).exponents
    terms = [e * Fraction(f) for e, f in zip(w, log_factors or ())]
    gap = ll - lr + sum(terms)
    ulps = _reference_nodes(node.left) + _reference_nodes(node.right) + len(w) + 2
    bound = ulps * Fraction(2) ** -52 * (1 + abs(ll) + abs(lr) + sum(abs(t) for t in terms))
    if node.op != "=":
        flip, holds = Fraction(0), (gap < 0 if sl > 0 else gap > 0)
        distance = gap
    elif sl == sr:
        # |L - R| <= tol*max(|L|, |R|) where |gap| <= -log(1 - tol)
        if tol >= 1:
            return True
        flip = Fraction(-math.log1p(-tol))
        distance, holds = abs(gap), abs(gap) <= flip
    else:
        # opposite signs: |L| + |R| <= tol*max(|L|, |R|) where |gap| >= -log(tol - 1)
        if tol <= 1 or tol == math.inf:
            return tol > 1
        flip = Fraction(-math.log(tol - 1))
        distance, holds = abs(gap), abs(gap) >= flip
    if abs(distance - flip) <= bound:
        raise _Undecided
    return holds


def _reference_leaves(node, env, leaves) -> dict:
    """leaves, given each leaf of the relation's `and`/`or`/`not` structure,
    by id: None for a comparison of two dimensions, else the leaf's
    `compile_relation` handle, so a trial neither types nor compiles one."""
    if isinstance(node, BoolOp):
        _reference_leaves(node.left, env, leaves)
        _reference_leaves(node.right, env, leaves)
    elif isinstance(node, Not):
        _reference_leaves(node.operand, env, leaves)
    elif isinstance(node, Compare) and typecheck(node.left, env) != typecheck(node.right, env):
        leaves[id(node)] = None
    else:
        leaves[id(node)] = compile_relation(node, env)
    return leaves


def _reference_pair(node, env, leaves, bindings, log_factors, tol) -> tuple[bool, bool]:
    """(before, after) under the typing theorem: a comparison of one
    dimension keeps its value, a mixed one is decided again; `and`/`or`
    evaluate their right operand wherever either value needs it. leaves
    is `_reference_leaves` of the relation."""
    if isinstance(node, BoolOp):
        before, after = _reference_pair(node.left, env, leaves, bindings, log_factors, tol)
        if node.op == "and" and not before and not after:
            return False, False
        if node.op == "or" and before and after:
            return True, True
        rb, ra = _reference_pair(node.right, env, leaves, bindings, log_factors, tol)
        if node.op == "and":
            return before and rb, after and ra
        return before or rb, after or ra
    if isinstance(node, Not):
        before, after = _reference_pair(node.operand, env, leaves, bindings, log_factors, tol)
        return not before, not after
    leaf = leaves[id(node)]
    if leaf is None:
        return (_reference_mixed(node, env, bindings, None, tol),
                _reference_mixed(node, env, bindings, log_factors, tol))
    value = evaluate(leaf, bindings, tol=tol)
    return value, value


def reference_shrink(decide, point, log_factors) -> list[float]:
    """The shrinker as one Python loop over every factor in every round:
    bisect each log factor toward 0 while the violation persists, each
    candidate decided by the trial kernel's `decide` at the trial's point. A
    candidate that is undecided, or that needs a branch outside the
    relation's domain, does not violate. The kernel's `shrink` must give
    the same list, float for float."""
    log_factors = list(log_factors)
    for _ in range(harness._SHRINK_ROUNDS):
        improved = False
        for j in range(len(log_factors)):
            if log_factors[j] == 0.0:
                continue
            candidate = log_factors.copy()
            candidate[j] /= 2
            try:
                violates = decide(*point, *candidate) is not None
            except (EvaluationError, harness._Undecided):
                violates = False
            if violates:
                log_factors = candidate
                improved = True
        if not improved:
            break
    return log_factors


def trial_draws(seed: int, trial: int):
    """The fuzzer's unit draws for (seed, trial), a pure function of the
    two: block k is the 64-byte blake2b digest of f"{seed}:{trial}" (k = 0)
    or f"{seed}:{trial}:{k}", read as eight big-endian 64-bit words q, and
    each draw is the top 53 bits of a word over 2**53, as `random.random`
    builds one. Endless: the caller takes what it needs."""
    for k in count():
        key = f"{seed}:{trial}" if k == 0 else f"{seed}:{trial}:{k}"
        block = blake2b(key.encode()).digest()
        for i in range(0, 64, 8):
            yield (int.from_bytes(block[i:i + 8], "big") >> 11) / 2**53


def trial_uniform(draws, bounds) -> float:
    """The next draw of `trial_draws` over [lo, hi), as `random.uniform` maps one."""
    lo, hi = bounds
    return lo + (hi - lo) * next(draws)


def reference_fuzz(spec, trials: int, seed: int = 0, tol: float = DEFAULT_TOL):
    """The invariance fuzzer's trial rule over Quantity bindings, worked out
    apart from `harness`: each trial evaluates the relation at its drawn
    bindings only, and re-decides each comparison of two dimensions from
    Quantity-level sides and the exact log gap, with w = dL - dR as
    Fractions. The shrinker bisects the log factors on those decisions, and
    a counterexample is confirmed through `rescale` and `evaluate`; the
    first confirmed one ends the run, and a failing trial that does not
    reproduce is undecided, as `fuzz_invariance` rules. Its
    draws come from `trial_draws`, its own digests per (seed, trial), each
    mapped by `trial_uniform`; it shares only the ranges and the seeding
    target with `harness`. `fuzz_invariance` must give an equal report,
    float for float, and raise what this raises."""
    for name, value in (("trials", trials), ("seed", seed)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if trials < 1:
        raise ValueError("at least one trial required")
    check_tol(tol)
    try:
        result_type = typecheck(spec.relation, spec.env, sides=[])
    except DimensionError as exc:
        raise SpecError(f"relation is ill-typed: {exc}") from exc
    if result_type is not BOOL:
        raise SpecError("relation does not evaluate to a truth value")

    names, dims, env = spec.variable_names, spec.variable_dims, spec.env
    seed_target = harness._equality_seed_target(spec)
    # one compiled handle each for the seeder and the confirmation, built
    # once the relation is known to type
    relation = compile_relation(spec.relation, env)
    target = None if seed_target is None else compile_relation(seed_target[1], env)
    leaves = _reference_leaves(spec.relation, env, {})
    has_mixed = None in leaves.values()

    def violates(bindings, log_factors, before):
        try:
            return _reference_pair(spec.relation, env, leaves, bindings, log_factors, tol)[1] != before
        except (EvaluationError, _Undecided):
            return False

    def shrink(bindings, log_factors, before):
        log_factors = list(log_factors)
        for _ in range(harness._SHRINK_ROUNDS):
            improved = False
            for j in range(len(log_factors)):
                if log_factors[j] == 0.0:
                    continue
                candidate = log_factors.copy()
                candidate[j] /= 2
                if violates(bindings, candidate, before):
                    log_factors = candidate
                    improved = True
            if not improved:
                break
        return harness.Rescaling(spec.system, tuple(log_factors))

    passed = inapplicable = undecided = 0
    counterexample = None
    for trial in range(trials):
        draws = trial_draws(seed, trial)
        bindings = {
            name: Quantity(trial_uniform(draws, harness._LOG_MAG_RANGE), dim)
            for name, dim in zip(names, dims)
        }
        if target is not None:
            vname = seed_target[0]
            try:
                bindings[vname] = Quantity(evaluate(target, bindings).log_magnitude, bindings[vname].dim)
            except EvaluationError:
                pass
        log_factors = None
        if has_mixed:
            log_factors = [trial_uniform(draws, harness._LOG_FACTOR_RANGE) for _ in spec.system.names]
        try:
            before, after = _reference_pair(spec.relation, env, leaves, bindings, log_factors, tol)
        except EvaluationError as exc:
            inapplicable += 1
            out_of_domain = exc
            continue
        except _Undecided:
            undecided += 1
            continue
        if before == after:
            passed += 1
            continue
        shrunk = shrink(bindings, log_factors, before)
        try:
            rescaled = {n: harness.rescale([bindings[n]], shrunk)[0] for n in names}
            reproduced = (evaluate(relation, bindings, tol=tol),
                          evaluate(relation, rescaled, tol=tol))
        except (EvaluationError, ValueError):
            reproduced = None
        if reproduced != (before, after):
            undecided += 1
            continue
        counterexample = harness.Counterexample(
            trial_index=trial,
            log_bindings={n: bindings[n].log_magnitude for n in names},
            factors=dict(zip(spec.system.names, shrunk.factors)),
            before=before,
            after=after,
        )
        break
    if inapplicable + undecided == trials:
        if not undecided:
            raise EvaluationError(
                f"relation is undefined on all {trials} trials, so nothing was tested "
                f"(last: {out_of_domain})"
            )
        raise EvaluationError(
            f"relation was decided on none of {trials} trials, so nothing was tested "
            f"({undecided} undecided, {inapplicable} undefined)"
        )
    return harness.InvarianceReport(
        trials=trials,
        passed=passed,
        seed=seed,
        counterexample=counterexample,
        inapplicable=inapplicable,
        undecided=undecided,
    )
