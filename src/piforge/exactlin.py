"""Exact rational linear algebra on small dense matrices.

Scalars are `fractions.Fraction`, so every result here is exact: no pivots by
magnitude, no tolerances, no floating point anywhere. Matrices are immutable
row-major tuples sized for desk-scale work (a dozen columns, not thousands).

Elimination runs on integer rows. `eliminate` scales each row by the lcm of
its denominators and eliminates with Python ints (fraction-free, each updated
row divided by the gcd of its entries; Bareiss, Math. Comp. 22, 1968). Its
`Reduction` keeps the nonzero RREF rows as coprime integers, pivot positive,
and every reader here works from those rows. Only `rref` builds the Fraction
RREF, as output. The RREF is unique, so it equals that of a Fraction
Gauss-Jordan loop entry for entry. `kernel_basis`, `solve` and `invert` all
read off one elimination.

The one piece of policy lives in `canonical_kernel`, which reads the kernel
off the integer rows of a `Reduction`, as `kernel_basis` does: kernel vectors
come from the standard RREF free-variable construction, ordered by increasing
free column, and are rescaled to primitive integer vectors. The rescale
factor is always positive, so the +1 the construction places at the free
column stays positive; this makes the output reproducible and directly
comparable across runs."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NoSolutionError, SingularMatrixError, frozen

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """An int, a "p/q" string or a Fraction as a Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@frozen
class QMatrix:
    """Immutable rows x cols matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        """Build from an iterable of equal-length rows; entries may be int,
        str ("2/3"), or Fraction."""
        materialized = [[as_rational(v) for v in row] for row in rows]
        nrows = len(materialized)
        ncols = len(materialized[0]) if materialized else 0
        if any(len(r) != ncols for r in materialized):
            raise ValueError("rows have unequal lengths")
        flat = tuple(v for row in materialized for v in row)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul_vec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        vv = [as_rational(x) for x in v]
        return tuple(
            sum((self.at(i, j) * vv[j] for j in range(self.cols)), _ZERO)
            for i in range(self.rows)
        )

    def matmul(self, other: "QMatrix") -> "QMatrix":
        """Exact product; zero entries contribute no terms."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} != {other.rows}")
        columns = [other.col(j) for j in range(other.cols)]
        flat = []
        for i in range(self.rows):
            terms = [(k, v) for k, v in enumerate(self.row(i)) if v]
            for column in columns:
                flat.append(sum((v * column[k] for k, v in terms if column[k]), _ZERO))
        return QMatrix(self.rows, other.cols, tuple(flat))

    def __str__(self) -> str:
        return "\n".join(
            "[" + "  ".join(str(v) for v in self.row(i)) + "]" for i in range(self.rows)
        )


def _integer_row(row) -> list[int]:
    """The row scaled by a positive factor to coprime integers."""
    scale = math.lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    common = math.gcd(*ints)
    return [v // common for v in ints] if common > 1 else ints


@frozen
class Reduction:
    """A matrix's RREF as integers: int_rows[i] is nonzero RREF row i scaled
    to coprime integers, its pivot at pivot_cols[i] positive, so RREF entry
    (i, j) is int_rows[i][j] / int_rows[i][pivot_cols[i]]. free_cols are the
    non-pivot columns in increasing order, set once by `eliminate`."""

    shape: tuple[int, int]
    int_rows: tuple[tuple[int, ...], ...]
    pivot_cols: tuple[int, ...]
    rank: int
    free_cols: tuple[int, ...]


def eliminate(m: QMatrix) -> Reduction:
    """The `Reduction` of m. Pivoting takes the first nonzero entry in each
    column — exact arithmetic needs no magnitude heuristics."""
    nrows, ncols = m.rows, m.cols
    work = [_integer_row(m.row(i)) for i in range(nrows)]
    pivot_cols: list[int] = []
    piv_row = 0
    for col in range(ncols):
        if piv_row >= nrows:
            break
        sel = next((r for r in range(piv_row, nrows) if work[r][col]), None)
        if sel is None:
            continue
        work[piv_row], work[sel] = work[sel], work[piv_row]
        pivot_row = work[piv_row]
        pivot = pivot_row[col]
        for r in range(nrows):
            factor = work[r][col]
            if r == piv_row or not factor:
                continue
            # pivot * row - factor * pivot_row clears the column and scales
            # the row by a nonzero integer, which leaves the row space alone.
            row = [pivot * a - factor * b for a, b in zip(work[r], pivot_row)]
            common = math.gcd(*row)
            work[r] = [v // common for v in row] if common > 1 else row
        pivot_cols.append(col)
        piv_row += 1
    rows = tuple(tuple(v if row[pc] > 0 else -v for v in row) for row, pc in zip(work, pivot_cols))
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    return Reduction((nrows, ncols), rows, tuple(pivot_cols), piv_row, free_cols)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Reduced row echelon form of m: (reduced, pivot_cols, rank), the
    integer rows of one `eliminate` divided by their pivots."""
    reduction = eliminate(m)
    flat = [Fraction(v, row[pc]) if v else _ZERO
            for row, pc in zip(reduction.int_rows, reduction.pivot_cols) for v in row]
    flat += [_ZERO] * ((m.rows - reduction.rank) * m.cols)
    return QMatrix(m.rows, m.cols, tuple(flat)), reduction.pivot_cols, reduction.rank


def rank(m: QMatrix) -> int:
    return eliminate(m).rank


def free_kernel(reduction: Reduction) -> list[tuple[Fraction, ...]]:
    """The unscaled RREF free-variable kernel basis of a `Reduction`, one
    vector per free column, by increasing column: 1 at the free column,
    -row[free] / row[pc] at the pivot column pc of each integer row, 0
    elsewhere."""
    basis = []
    for free in reduction.free_cols:
        vec = [_ZERO] * reduction.shape[1]
        vec[free] = _ONE
        for row, pc in zip(reduction.int_rows, reduction.pivot_cols):
            if row[free]:
                vec[pc] = Fraction(-row[free], row[pc])
        basis.append(tuple(vec))
    return basis


def canonical_kernel(reduction: Reduction) -> list[tuple[Fraction, ...]]:
    """Basis of {v : m v = 0} read off m's `Reduction`, with no elimination of
    its own: `free_kernel` scaled to primitive integers, times the lcm of the
    pivots over one gcd (positive, so the free-column entry stays +)."""
    rows, pivots = reduction.int_rows, reduction.pivot_cols
    scale = math.lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for free in reduction.free_cols:
        vec = [0] * reduction.shape[1]
        vec[free] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free] * scale // row[pc]
        common = math.gcd(*vec)
        basis.append(tuple(Fraction(v // common) if v else _ZERO for v in vec))
    return basis


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of {v : m v = 0}: `canonical_kernel` of one `eliminate` of m."""
    return canonical_kernel(eliminate(m))


def solve_each(a: QMatrix, bs) -> list[tuple[Fraction, ...] | None]:
    """Exact solutions of a x = b for every b in bs, free variables pinned
    to zero, from one elimination of [a | b1 ... bk]; None for each b
    outside the column space of a."""
    bs = [[as_rational(v) for v in b] for b in bs]
    for b in bs:
        if len(b) != a.rows:
            raise ValueError(f"right-hand side length {len(b)} != rows {a.rows}")
    flat = tuple(v for i in range(a.rows) for v in (*a.row(i), *(b[i] for b in bs)))
    reduction = eliminate(QMatrix(a.rows, a.cols + len(bs), flat))
    # A row pivoting at or past a.cols is zero on a, so b_j is in the column
    # space iff every such row is zero in b_j's column; then only rows that
    # pivot in a are nonzero there.
    rows = list(zip(reduction.int_rows, reduction.pivot_cols))
    solutions = []
    for col in range(a.cols, a.cols + len(bs)):
        if any(row[col] for row, pc in rows if pc >= a.cols):
            solutions.append(None)
            continue
        x = [_ZERO] * a.cols
        for row, pc in rows:
            if row[col]:
                x[pc] = Fraction(row[col], row[pc])
        solutions.append(tuple(x))
    return solutions


def solve_many(a: QMatrix, bs) -> list[tuple[Fraction, ...]]:
    """`solve_each`, raising NoSolutionError when some b is outside the
    column space of a."""
    solutions = solve_each(a, bs)
    if None in solutions:
        raise NoSolutionError("right-hand side is outside the column space")
    return solutions


def solve(a: QMatrix, b) -> tuple[Fraction, ...]:
    """Exact solution of a x = b with free variables pinned to zero.

    Raises NoSolutionError when b is outside the column space of a.
    """
    return solve_many(a, [b])[0]


def invert(m: QMatrix) -> QMatrix:
    """Exact inverse; raises SingularMatrixError when rank < n. Row i of the
    inverse solves m^T y = e_i, and one elimination serves every row."""
    if m.rows != m.cols:
        raise ValueError("inversion requires a square matrix")
    try:
        return QMatrix.from_rows(solve_many(m.transpose(), QMatrix.identity(m.rows).to_rows()))
    except NoSolutionError:
        raise SingularMatrixError(f"matrix of rank {rank(m)} < {m.rows} has no inverse") from None
