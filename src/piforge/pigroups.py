"""Bases of the space of dimensionless products of powers.

Given dimensions w1..wn of rank m, the n-input combinations annihilating them
form an r = n - m dimensional space. `pi_basis` returns its canonical basis
(the RREF free-variable kernel, primitive integers); `special_basis` returns
the basis in which each group carries exactly one "free" variable to the
first power, the rest drawn from a fixed pivot set; `transition` computes the
exact invertible change of basis between any two bases.

Every basis keeps the one `core.reduce_dims` that built or validated it.
`reduce_dims` keeps the last list it reduced, so `pi_basis`, `special_basis`,
a `PiBasis` constructor and `units.is_consistent` called in turn on the same
DimVector objects share one elimination; an equal list of other objects
reduces again. The groups and `row_space` read that `exactlin.Reduction`'s
integer RREF rows. Its free slots are its `free_cols`, the non-pivot columns.
A dimensionless product is fixed by its exponents there, so a basis's r x r
`free_block` holds its coordinates in the special basis; `transition` reads
two blocks. The builders keep the block they build, diagonal with integer
entries; a public basis scans its groups for it on first use.

The public constructors `PiBasis`, `SpecialPiBasis` and `Transition`, and
`is_pi_basis`, validate the groups a caller hands them. The builders read
their results off one exact elimination of the dimension matrix, correct by
construction, and return them through `_built` without checking them again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .core import DimVector, Monomial, dim_combine, reduce_dims, row_space
from .errors import NotABasisError, frozen
from .exactlin import QMatrix, canonical_kernel, free_kernel, rank, solve_many

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _built(cls, **fields):
    """A frozen cls instance with these fields, skipping cls's validation,
    for results this module has just built exactly. Not a subclass, so it
    compares and hashes equal to the same object built publicly."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@frozen
class PiBasis:
    """A basis of the annihilator space over fixed dims. The constructor
    validates the groups; the builders below skip that for their own.

    `reduction` is `core.reduce_dims(dims)`, an `exactlin.Reduction`: the
    constructor keeps the one it validates with, the builders the one they
    build from. It is an attribute, not a field, so it takes no part in ==,
    hash or repr. `dims` and `groups` are kept as tuples, whatever sequences
    the constructor is given.
    """

    dims: tuple[DimVector, ...]
    groups: tuple[Monomial, ...]

    def __post_init__(self):
        n = len(self.dims)
        reduction = reduce_dims(self.dims)
        expected_r = n - reduction.rank
        if len(self.groups) != expected_r:
            raise NotABasisError(
                f"{len(self.groups)} groups for a kernel of dimension {expected_r}"
            )
        for g in self.groups:
            if g.arity != n:
                raise NotABasisError(f"group arity {g.arity} != {n}")
            if not dim_combine(g, self.dims).is_zero():
                raise NotABasisError(f"group {g} does not annihilate the dimensions")
        exponents = QMatrix.from_rows([g.exponents for g in self.groups])
        if self.groups and rank(exponents) != len(self.groups):
            raise NotABasisError("groups are linearly dependent")
        object.__setattr__(self, "reduction", reduction)

    @property
    def r(self) -> int:
        return len(self.groups)

    @cached_property
    def row_space(self) -> tuple[tuple[float, ...], ...]:
        """The log shifts no group's value sees: `core.row_space`."""
        return row_space(self.reduction)

    @cached_property
    def free_block(self) -> tuple[tuple[tuple[int, int | Fraction], ...], ...]:
        """The r x r free-slot block, which holds the groups' coordinates in
        the special basis: row i lists group i's nonzero exponents at the
        free slots as (column, value) pairs. The builders keep theirs."""
        free_cols = self.reduction.free_cols
        return tuple(
            tuple([(j, e) for j, e in enumerate([g.exponents[c] for c in free_cols]) if e])
            for g in self.groups
        )


@frozen
class SpecialPiBasis:
    """A pi basis where group i is x_{free_i} times a combination of the pivots.

    `anchor` is the last reference list `nondim.preimage`, `canonical_rep` or
    `nondimensionalize` checked against this basis, as (the tuple of its
    Quantity objects, tol, the free-slot logs log psi_i(ref)). Its key is the
    ref objects by `is`, slot for slot, plus tol: a later call with the
    same objects and tol skips the check, while a list of equal copies, or
    one edited in place, is checked again. It starts empty and is replaced
    whole. It is an attribute, not a field, so it takes no part in ==, hash
    or repr.
    """

    base: PiBasis
    pivot_indices: tuple[int, ...]
    free_indices: tuple[int, ...]
    anchor = ((), None, ())

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

    @cached_property
    def canonical(self) -> PiBasis:
        """`pi_basis(base.dims)`, read off the base's kept reduction."""
        return _canonical(self.base.dims, self.base.reduction)


@frozen
class Transition:
    """Exact change of basis: row i of matrix expresses the target's group i
    in the source basis; inverse is the exact matrix inverse."""

    matrix: QMatrix
    inverse: QMatrix

    def __post_init__(self):
        product = self.matrix.matmul(self.inverse)
        if product != QMatrix.identity(self.matrix.rows):
            raise NotABasisError("transition matrix and inverse do not multiply to identity")


def _special(dims, reduction) -> SpecialPiBasis:
    """The special basis over dims, read off `reduce_dims(dims)`."""
    groups = tuple(Monomial(vec) for vec in free_kernel(reduction))
    block = tuple([((i, 1),) for i in range(len(groups))])
    base = _built(PiBasis, dims=dims, groups=groups, reduction=reduction, free_block=block)
    return _built(SpecialPiBasis, base=base, pivot_indices=reduction.pivot_cols,
                  free_indices=reduction.free_cols)


def _canonical(dims, reduction) -> PiBasis:
    """The canonical basis over dims, read off `reduce_dims(dims)`; its free
    block is diag(c_i), c_i > 0 group i's integer exponent at free slot i."""
    groups = tuple(Monomial(vec) for vec in canonical_kernel(reduction))
    block = tuple([((i, g.exponents[c].numerator),)
                   for i, (g, c) in enumerate(zip(groups, reduction.free_cols))])
    return _built(PiBasis, dims=dims, groups=groups, reduction=reduction, free_block=block)


def pi_basis(dims) -> PiBasis:
    """Canonical basis of the annihilator space of dims (may be empty, r = 0):
    the RREF free-variable kernel scaled to primitive integers, as
    `exactlin.kernel_basis` of the dimension matrix gives it."""
    dims = tuple(dims)
    return _canonical(dims, reduce_dims(dims))


def special_basis(dims) -> SpecialPiBasis:
    """The special basis over the first maximal independent subfamily of dims.

    Pivot slots are the RREF pivot columns of the dimension matrix. The group
    for free slot l is the unscaled free-variable kernel vector of that one
    RREF: coefficient 1 at l, minus the RREF entry in column l at each pivot
    slot, which are the exact pivot exponents that make the combination
    dimensionless. Its `canonical` is `pi_basis(dims)`, off the same RREF.
    """
    dims = tuple(dims)
    return _special(dims, reduce_dims(dims))


def _dense(block) -> list[list[Fraction]]:
    rows = [[_ZERO] * len(block) for _ in block]
    for row, terms in zip(rows, block):
        for j, v in terms:
            row[j] = v
    return rows


def _right_divide(x, a) -> QMatrix:
    """x a^-1, exact, for r x r `PiBasis.free_block`s with a invertible. A
    diagonal a divides column j of x by a[j][j], touching only x's nonzero
    entries, as one `Fraction(v, d)`, exact for int and Fraction entries
    alike; any other a takes one `solve_many` of a^T against the rows of x,
    since y a = x iff a^T y^T = x^T."""
    r = len(a)
    if all(len(terms) == 1 and terms[0][0] == i for i, terms in enumerate(a)):
        flat = [_ZERO] * (r * r)
        for i, terms in enumerate(x):
            for j, v in terms:
                flat[i * r + j] = Fraction(v, a[j][0][1])
        return QMatrix(r, r, tuple(flat))
    a_t = QMatrix.from_rows(_dense(a)).transpose()
    return QMatrix.from_rows(solve_many(a_t, _dense(x)))


def transition(psi: PiBasis, pi: PiBasis) -> Transition:
    """The exact transition from basis psi to basis pi over the same dims.

    Row i of the matrix holds the unique coefficients with
    pi.groups[i] = sum_j M[i][j] * psi.groups[j].

    With A and B the `free_block`s of psi and pi, psi = A s and pi = B s
    over the special basis s, so M = B A^-1 and its inverse is A B^-1. Every
    builder keeps its block, diagonal with int entries (the special basis's
    is I, the canonical basis's diag(c_i) with each c_i > 0), so a builder
    pair scans no group and needs no elimination at all.
    """
    if psi.dims != pi.dims:
        raise NotABasisError("transition requires bases over identical dimensions")
    a, b = psi.free_block, pi.free_block
    return _built(Transition, matrix=_right_divide(b, a), inverse=_right_divide(a, b))


def is_pi_basis(candidate, dims) -> bool:
    """True iff the candidate groups form a basis of the annihilator space."""
    try:
        PiBasis(dims=dims, groups=candidate)
    except NotABasisError:
        return False
    return True
