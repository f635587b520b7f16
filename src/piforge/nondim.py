"""Pi-values, the rescaling equivalence, and constructive nondimensionalization.

Two variable tuples over the same dimensions are equivalent when one is a
fundamental-rescaling image of the other, so all their pi-values agree;
`equivalent` tests how far their log difference lies from that orbit.
`canonical_rep` picks the unique member of an equivalence class whose
pivot-slot coordinates relative to a chosen reference list are 1, and
`nondimensionalize` turns any dimensionally invariant predicate over n
quantities into a predicate over the r pi-values.

Equivalence classes and invariant sets are uncountable, so they are only ever
represented intensionally — as verdicts and predicates, never enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .core import DEFAULT_TOL, Quantity, coordinate, magnitude_or_limit, orbit_gap
from .errors import DimensionMismatchError, InconsistentReferenceError
from .pigroups import PiBasis, SpecialPiBasis
from .units import require_consistent


@dataclass(frozen=True)
class PiValues:
    """The tuple of pi-group magnitudes at a variable binding, in log space."""

    log_values: tuple[float, ...]

    @property
    def values(self) -> tuple[float, ...]:
        """The magnitudes as floats: inf or 0.0 beyond the float range."""
        return tuple(magnitude_or_limit(v) for v in self.log_values)

    def __len__(self) -> int:
        return len(self.log_values)


class VerdictReason(Enum):
    EQUIVALENT = "equivalent"
    DIM_MISMATCH = "dim-mismatch"
    PI_MISMATCH = "pi-mismatch"


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    reason: VerdictReason
    mismatch_index: int | None = None

    def __post_init__(self):
        if self.equivalent != (self.reason is VerdictReason.EQUIVALENT):
            raise ValueError("verdict flag and reason disagree")


def _check_dims_against_basis(basis: PiBasis, xs: Sequence[Quantity], label: str):
    if len(xs) != len(basis.dims):
        raise DimensionMismatchError(
            f"{label} has {len(xs)} slots for {len(basis.dims)} dimensions"
        )
    for i, (x, w) in enumerate(zip(xs, basis.dims)):
        if x.dim != w:
            raise DimensionMismatchError(f"{label}[{i}] has dimension {x.dim}, expected {w}")


def pi_values(basis: PiBasis, xs: Sequence[Quantity]) -> PiValues:
    """Evaluate every group of the basis at xs; each result is dimensionless.

    Once xs carries the basis dimensions slot for slot, every group is
    dimensionless by construction, so only the log magnitudes are combined.
    """
    _check_dims_against_basis(basis, xs, "xs")
    logs = [x.log_magnitude for x in xs]
    return PiValues(tuple(g.log_combine(logs) for g in basis.groups))


def strip_units(s: Sequence[Quantity], xs: Sequence[Quantity], tol: float = DEFAULT_TOL) -> list[float]:
    """Coordinates of xs relative to a consistent unit list s (the unit-ignoring map)."""
    s = list(s)
    xs = list(xs)
    require_consistent(s, tol)
    if len(s) != len(xs):
        raise DimensionMismatchError(f"{len(xs)} values for {len(s)} units")
    for i, (unit, x) in enumerate(zip(s, xs)):
        if unit.dim != x.dim:
            raise DimensionMismatchError(
                f"slot {i}: value of dimension {x.dim} against unit of dimension {unit.dim}"
            )
    return [coordinate(x, unit) for unit, x in zip(s, xs)]


def equivalent(
    basis: PiBasis,
    xs: Sequence[Quantity],
    ys: Sequence[Quantity],
    tol: float = DEFAULT_TOL,
) -> EquivalenceVerdict:
    """Decide xs ~ ys: equal dimensions slotwise (else a DIM_MISMATCH verdict,
    not an error; xs must conform to the basis) and log xs - log ys within tol
    of the row space of the dimension matrix, whatever the basis. On a pi
    mismatch, mismatch_index names the group whose log differs most."""
    _check_dims_against_basis(basis, xs, "xs")
    if len(ys) != len(xs) or any(x.dim != y.dim for x, y in zip(xs, ys)):
        return EquivalenceVerdict(False, VerdictReason.DIM_MISMATCH)
    delta = [x.log_magnitude - y.log_magnitude for x, y in zip(xs, ys)]
    if basis.r == 0 or orbit_gap(basis.row_space, delta) <= tol:
        return EquivalenceVerdict(True, VerdictReason.EQUIVALENT)
    worst = max(range(basis.r), key=lambda i: abs(basis.groups[i].log_combine(delta)))
    return EquivalenceVerdict(False, VerdictReason.PI_MISMATCH, mismatch_index=worst)


def _reference_free_slot_values(sb: SpecialPiBasis, ref: Sequence[Quantity]) -> list[float]:
    """log of u_i = psi_i(ref) for each free slot's group; ref must already
    carry the basis dimensions."""
    logs = [q.log_magnitude for q in ref]
    return [g.log_combine(logs) for g in sb.base.groups]


def _check_reference(sb: SpecialPiBasis, ref: Sequence[Quantity], tol: float):
    _check_dims_against_basis(sb.base, ref, "ref")
    require_consistent(list(ref), tol, InconsistentReferenceError, "reference list")


def _place_free_slots(sb: SpecialPiBasis, ref, log_u, log_values) -> list[Quantity]:
    """ref with free slot l_i carrying (v_i / psi_i(ref)) * ref[l_i], for
    log v_i in log_values and log psi_i(ref) in log_u."""
    xs = list(ref)
    for i, free in enumerate(sb.free_indices):
        xs[free] = Quantity(log_values[i] - log_u[i] + ref[free].log_magnitude, ref[free].dim)
    return xs


def preimage(
    sb: SpecialPiBasis,
    ref: Sequence[Quantity],
    log_values: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> list[Quantity]:
    """A tuple with the given pi-values: pivot slots at ref, free slots adjusted.

    This is the surjectivity construction with base point ref: free slot l_i
    carries (v_i / psi_i(ref)) * ref[l_i].
    """
    _check_reference(sb, ref, tol)
    if len(log_values) != sb.base.r:
        raise DimensionMismatchError(f"{len(log_values)} pi-values for r = {sb.base.r}")
    return _place_free_slots(sb, ref, _reference_free_slot_values(sb, ref), log_values)


def canonical_rep(
    sb: SpecialPiBasis,
    ref: Sequence[Quantity],
    xs: Sequence[Quantity],
    tol: float = DEFAULT_TOL,
) -> list[Quantity]:
    """The member of xs's class whose pivot coordinates relative to ref are 1."""
    values = pi_values(sb.base, xs)
    return preimage(sb, ref, values.log_values, tol=tol)


def nondimensionalize(
    f: Callable[[Sequence[Quantity]], bool],
    sb: SpecialPiBasis,
    ref: Sequence[Quantity],
    tol: float = DEFAULT_TOL,
) -> Callable[..., bool]:
    """Condense a dimensionally invariant predicate to one over r pi-values.

    The returned g takes r positive reals and evaluates f at their preimage
    under the surjectivity construction anchored at ref. For dimensionally
    invariant f this satisfies f(xs) = g(*pi_values(sb.base, xs).values); for
    non-invariant f the identity fails and the harness reports it.
    """
    _check_reference(sb, ref, tol)
    log_u = _reference_free_slot_values(sb, ref)
    ref = list(ref)

    def g(*values: float) -> bool:
        if len(values) != sb.base.r:
            raise DimensionMismatchError(f"{len(values)} pi-values for r = {sb.base.r}")
        for v in values:
            if v <= 0:
                raise ValueError(f"pi-values are positive reals, got {v!r}")
        return f(_place_free_slots(sb, ref, log_u, [math.log(v) for v in values]))

    return g
