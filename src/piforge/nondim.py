"""Pi-values, the rescaling equivalence, and constructive nondimensionalization.

Two variable tuples over the same dimensions are equivalent when one is a
fundamental-rescaling image of the other; equivalently (this module's working
form) when all their pi-values agree. `canonical_rep` picks the unique member
of an equivalence class whose pivot-slot coordinates relative to a chosen
reference list are 1, and `nondimensionalize` turns any dimensionally
invariant predicate over n quantities into a predicate over the r pi-values.

Equivalence classes and invariant sets are uncountable, so they are only ever
represented intensionally — as verdicts and predicates, never enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .core import DEFAULT_TOL, Quantity, coordinate, format_magnitude, magnitude_or_limit
from .errors import (
    DimensionMismatchError,
    InconsistentReferenceError,
    InconsistentUnitsError,
)
from .pigroups import PiBasis, SpecialPiBasis
from .units import is_consistent


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
    report = is_consistent(s, tol=tol)
    if not report.consistent:
        raise InconsistentUnitsError(
            f"unit list clashes by factor {format_magnitude(report.witness.log_clash_factor)}"
        )
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
    """Decide xs ~ ys: same dimensions slotwise and equal pi-values.

    Slotwise dimension disagreement between xs and ys is a verdict, not an
    error; xs must still conform to the basis dimensions.
    """
    _check_dims_against_basis(basis, xs, "xs")
    if len(ys) != len(xs) or any(x.dim != y.dim for x, y in zip(xs, ys)):
        return EquivalenceVerdict(False, VerdictReason.DIM_MISMATCH)
    px = pi_values(basis, xs)
    py = pi_values(basis, ys)
    for i, (a, b) in enumerate(zip(px.log_values, py.log_values)):
        if abs(a - b) > tol:
            return EquivalenceVerdict(False, VerdictReason.PI_MISMATCH, mismatch_index=i)
    return EquivalenceVerdict(True, VerdictReason.EQUIVALENT)


def _reference_free_slot_values(sb: SpecialPiBasis, ref: Sequence[Quantity]) -> list[float]:
    """log of u_i = psi_i(ref) for each free slot's group; ref must already
    carry the basis dimensions."""
    logs = [q.log_magnitude for q in ref]
    return [g.log_combine(logs) for g in sb.base.groups]


def _check_reference(sb: SpecialPiBasis, ref: Sequence[Quantity], tol: float):
    _check_dims_against_basis(sb.base, ref, "ref")
    report = is_consistent(list(ref), tol=tol)
    if not report.consistent:
        raise InconsistentReferenceError(
            f"reference list clashes by factor {format_magnitude(report.witness.log_clash_factor)}"
        )


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
    log_u = _reference_free_slot_values(sb, ref)
    result = list(ref)
    for i, free in enumerate(sb.free_indices):
        shifted = log_values[i] - log_u[i] + ref[free].log_magnitude
        result[free] = Quantity(shifted, ref[free].dim)
    return result


def canonical_rep(
    sb: SpecialPiBasis,
    ref: Sequence[Quantity],
    xs: Sequence[Quantity],
    tol: float = DEFAULT_TOL,
) -> list[Quantity]:
    """The member of xs's class whose pivot coordinates relative to ref are 1."""
    _check_dims_against_basis(sb.base, xs, "xs")
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
    free_indices = sb.free_indices

    def g(*values: float) -> bool:
        if len(values) != sb.base.r:
            raise DimensionMismatchError(f"{len(values)} pi-values for r = {sb.base.r}")
        xs = list(ref)
        for i, free in enumerate(free_indices):
            if values[i] <= 0:
                raise ValueError(f"pi-values are positive reals, got {values[i]!r}")
            shifted = math.log(values[i]) - log_u[i] + ref[free].log_magnitude
            xs[free] = Quantity(shifted, ref[free].dim)
        return f(xs)

    return g
