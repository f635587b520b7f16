"""Bases of the space of dimensionless products of powers.

Given dimensions w1..wn of rank m, the n-input combinations annihilating them
form an r = n - m dimensional space. `pi_basis` returns its canonical basis
(the RREF free-variable kernel, primitive integers); `special_basis` returns
the basis in which each group carries exactly one "free" variable to the
first power, the rest drawn from a fixed pivot set; `transition` computes the
exact invertible change of basis between any two bases.

The public constructors `PiBasis`, `SpecialPiBasis` and `Transition`, and
`is_pi_basis`, validate the groups a caller hands them. The three builders
read their results off exact eliminations, correct by construction, and
return them through `_built` without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import DimVector, Monomial, dim_combine, dimension_matrix, row_space
from .errors import NotABasisError
from .exactlin import QMatrix, free_kernel, invert, kernel_basis, rref, solve_many

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _dimension_matrix_of(dims) -> QMatrix:
    return dimension_matrix(dims[0].system, dims)


def _exponent_matrix(groups) -> QMatrix:
    """Stack the groups' exponent vectors as rows (r x n)."""
    return QMatrix.from_rows([list(g.exponents) for g in groups])


def _built(cls, **fields):
    """A frozen cls instance with these fields, skipping cls's validation,
    for results this module has just built exactly. Not a subclass, so it
    compares and hashes equal to the same object built publicly."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class PiBasis:
    """A basis of the annihilator space over fixed dims. The constructor
    validates the groups; the builders below skip that for their own."""

    dims: tuple[DimVector, ...]
    groups: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.dims:
            raise NotABasisError("a pi basis needs at least one dimension slot")
        n = len(self.dims)
        matrix = _dimension_matrix_of(self.dims)
        expected_r = n - rref(matrix)[2]
        if len(self.groups) != expected_r:
            raise NotABasisError(
                f"{len(self.groups)} groups for a kernel of dimension {expected_r}"
            )
        for g in self.groups:
            if g.arity != n:
                raise NotABasisError(f"group arity {g.arity} != {n}")
            if not dim_combine(g, self.dims).is_zero():
                raise NotABasisError(f"group {g} does not annihilate the dimensions")
        if self.groups:
            if rref(_exponent_matrix(self.groups))[2] != len(self.groups):
                raise NotABasisError("groups are linearly dependent")

    @property
    def r(self) -> int:
        return len(self.groups)

    @cached_property
    def row_space(self) -> tuple[tuple[float, ...], ...]:
        """`core.row_space(dims)`: the log shifts no group's value sees."""
        return row_space(self.dims)


@dataclass(frozen=True)
class SpecialPiBasis:
    """A pi basis where group i is x_{free_i} times a combination of the pivots."""

    base: PiBasis
    pivot_indices: tuple[int, ...]
    free_indices: tuple[int, ...]

    def __post_init__(self):
        n = len(self.base.dims)
        if sorted(self.pivot_indices + self.free_indices) != list(range(n)):
            raise NotABasisError("pivot and free indices must partition the slots")
        for group, free in zip(self.base.groups, self.free_indices):
            for other in self.free_indices:
                want = _ONE if other == free else _ZERO
                if group.exponents[other] != want:
                    raise NotABasisError(
                        f"group for free slot {free} has coefficient "
                        f"{group.exponents[other]} at free slot {other}"
                    )


@dataclass(frozen=True)
class Transition:
    """Exact change of basis: row i of matrix expresses the target's group i
    in the source basis; inverse is the exact matrix inverse."""

    matrix: QMatrix
    inverse: QMatrix

    def __post_init__(self):
        product = self.matrix.matmul(self.inverse)
        if product != QMatrix.identity(self.matrix.rows):
            raise NotABasisError("transition matrix and inverse do not multiply to identity")


def pi_basis(dims) -> PiBasis:
    """Canonical basis of the annihilator space of dims (may be empty, r = 0)."""
    dims = tuple(dims)
    groups = tuple(Monomial(vec) for vec in kernel_basis(_dimension_matrix_of(dims)))
    return _built(PiBasis, dims=dims, groups=groups)


def special_basis(dims) -> SpecialPiBasis:
    """The special basis over the first maximal independent subfamily of dims.

    Pivot slots are the RREF pivot columns of the dimension matrix. The group
    for free slot l is the unscaled free-variable kernel vector of that one
    RREF: coefficient 1 at l, minus the RREF entry in column l at each pivot
    slot, which are the exact pivot exponents that make the combination
    dimensionless.
    """
    dims = tuple(dims)
    reduced, pivot_cols, _ = rref(_dimension_matrix_of(dims))
    free_cols = tuple(i for i in range(len(dims)) if i not in pivot_cols)
    groups = tuple(Monomial(vec) for vec in free_kernel(reduced, pivot_cols))
    base = _built(PiBasis, dims=dims, groups=groups)
    return _built(SpecialPiBasis, base=base, pivot_indices=pivot_cols, free_indices=free_cols)


def transition(psi: PiBasis, pi: PiBasis) -> Transition:
    """The exact transition from basis psi to basis pi over the same dims.

    Row i of the matrix holds the unique coefficients with
    pi.groups[i] = sum_j M[i][j] * psi.groups[j].
    """
    if psi.dims != pi.dims:
        raise NotABasisError("transition requires bases over identical dimensions")
    r = psi.r
    if r == 0:
        identity = QMatrix.identity(0)
        return _built(Transition, matrix=identity, inverse=identity)
    # Columns are psi's exponent vectors; solving against all pi groups at
    # once is exact because both span the same kernel.
    columns = _exponent_matrix(psi.groups).transpose()
    matrix = QMatrix.from_rows(solve_many(columns, [g.exponents for g in pi.groups]))
    return _built(Transition, matrix=matrix, inverse=invert(matrix))


def is_pi_basis(candidate, dims) -> bool:
    """True iff the candidate groups form a basis of the annihilator space."""
    try:
        PiBasis(dims=tuple(dims), groups=tuple(candidate))
    except NotABasisError:
        return False
    return True
