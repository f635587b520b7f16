"""Pi-values, the rescaling equivalence, and constructive nondimensionalization.

Two variable tuples over the same dimensions are equivalent when one is a
fundamental-rescaling image of the other, so all their pi-values agree;
`equivalent` tests how far their log difference lies from that orbit.
`canonical_rep` picks the unique member of an equivalence class whose
pivot-slot coordinates relative to a chosen reference list are 1, and
`nondimensionalize` turns any dimensionally invariant predicate over n
quantities into a predicate over the r pi-values.

Once a basis is built, a record costs float work only. The basis's third
kernel, its reader (`PiBasis.reader`, from `core.record_reader`), reads a
record's quantity lists by the rule "identity, else `check_dims`": a list
over the basis's own DimVector objects yields its log magnitudes in one
unrolled pass, with no DimVector compare, and any other list goes through
`core.check_dims`, the one check of a tuple's dimensions, which names the
first wrong slot, then the list of its logs. `pi_values`, `equivalent`
(its `xs` error, then DIM_MISMATCH, when either list leaves the pass) and
`canonical_rep` read their bindings through it. A special basis keeps the
last reference it was anchored at (`SpecialPiBasis.anchor`), keyed by the
ref's Quantity objects, by `is`, and tol: a stream of `canonical_rep`
records at one reference checks its dimensions and consistency once, not
per record. A list of equal copies, or one edited in place, is checked
again. The float work itself runs in the basis's other two kernels,
straight-line functions made for each basis object on first use
(`PiBasis.log_values`, every group's log value, and `PiBasis.orbit_gap`,
the distance from the rescaling orbit); `log_values` gives float for
float what the loop of `log_combine` gives. `log_values` is generated per
basis, its exponents inlined; the orbit-gap and reader code are each
compiled once per slot count per process and shared, while the rows, the
dims and the groups stay per basis. A record builds no verdict object for
an equivalent pair and no `PiValues` in `canonical_rep`.

Equivalence classes and invariant sets are uncountable, so they are only ever
represented intensionally — as verdicts and predicates, never enumerated.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Callable, Sequence

from .core import DEFAULT_TOL, Quantity, check_dims, check_tol, magnitude_or_limit
from .errors import DimensionMismatchError, InconsistentReferenceError, frozen
from .pigroups import PiBasis, SpecialPiBasis
from .units import require_consistent


@frozen
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


@frozen
class EquivalenceVerdict:
    equivalent: bool
    reason: VerdictReason
    mismatch_index: int | None = None

    def __post_init__(self):
        if self.equivalent != (self.reason is VerdictReason.EQUIVALENT):
            raise ValueError("verdict flag and reason disagree")


_EQUIVALENT = EquivalenceVerdict(True, VerdictReason.EQUIVALENT)


def pi_values(basis: PiBasis, xs: Sequence[Quantity]) -> PiValues:
    """Evaluate every group of the basis at xs; each result is dimensionless.

    Once xs carries the basis dimensions slot for slot, every group is
    dimensionless by construction, so only the log magnitudes are combined.
    """
    return PiValues(basis.log_values(basis.reader[0](xs, "xs")))


def strip_units(s: Sequence[Quantity], xs: Sequence[Quantity], tol: float = DEFAULT_TOL) -> list[float]:
    """Coordinates of xs relative to a consistent unit list s (the unit-ignoring map).

    Once `check_dims` has matched every slot, each coordinate is the exp of
    a log difference, with no second compare of the dimensions."""
    s = list(s)
    xs = list(xs)
    require_consistent(s, tol)
    check_dims(tuple([u.dim for u in s]), xs, "xs")
    return [math.exp(x.log_magnitude - unit.log_magnitude) for unit, x in zip(s, xs)]


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
    check_tol(tol)
    delta = basis.reader[1](xs, ys)
    if delta is None:
        check_dims(basis.dims, xs, "xs")
        if tuple([y.dim for y in ys]) != basis.dims:
            return EquivalenceVerdict(False, VerdictReason.DIM_MISMATCH)
        delta = [x.log_magnitude - y.log_magnitude for x, y in zip(xs, ys)]
    if basis.r == 0 or basis.orbit_gap(delta) <= tol:
        return _EQUIVALENT
    sizes = list(map(abs, basis.log_values(delta)))
    worst = max(range(basis.r), key=sizes.__getitem__)
    return EquivalenceVerdict(False, VerdictReason.PI_MISMATCH, mismatch_index=worst)


def _anchor(sb: SpecialPiBasis, ref: Sequence[Quantity], tol: float) -> tuple[float, ...]:
    """log u_i = log psi_i(ref) for each free slot's group, once ref carries
    the basis dimensions and is consistent within tol (`is_consistent`, one
    `core.reduce_dims` of ref's dimensions).

    A ref that passes becomes `sb.anchor`. A call with the very same
    Quantity objects, slot for slot (`is`, as `core.reduce_dims` matches its
    list), and the same tol gets the kept logs with no check: quantities are
    immutable, so they are what a fresh check would give."""
    kept_ref, kept_tol, kept_log_u = sb.anchor
    if kept_tol == tol and len(kept_ref) == len(ref) and all(map(operator.is_, kept_ref, ref)):
        return kept_log_u
    logs = sb.base.reader[0](ref, "ref")
    require_consistent(ref, tol, InconsistentReferenceError, "reference list")
    log_u = sb.base.log_values(logs)
    object.__setattr__(sb, "anchor", (tuple(ref), tol, log_u))
    return log_u


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
    log_u = _anchor(sb, ref, tol)
    if len(log_values) != sb.base.r:
        raise DimensionMismatchError(f"{len(log_values)} pi-values for r = {sb.base.r}")
    xs = list(ref)
    for i, free in enumerate(sb.free_indices):
        xs[free] = Quantity(log_values[i] - log_u[i] + ref[free].log_magnitude, ref[free].dim)
    return xs


def canonical_rep(
    sb: SpecialPiBasis,
    ref: Sequence[Quantity],
    xs: Sequence[Quantity],
    tol: float = DEFAULT_TOL,
) -> list[Quantity]:
    """The member of xs's class whose pivot coordinates relative to ref are 1.

    xs is checked, and its pi-values taken, before ref is: a wrong xs
    raises as `pi_values` does, whatever ref holds."""
    return preimage(sb, ref, sb.base.log_values(sb.base.reader[0](xs, "xs")), tol)


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
    _anchor(sb, ref, tol)  # a bad ref raises here, not on g's first call
    ref = list(ref)

    def g(*values: float) -> bool:
        if len(values) != sb.base.r:
            raise DimensionMismatchError(f"{len(values)} pi-values for r = {sb.base.r}")
        for v in values:
            if isinstance(v, bool) or not 0 < v < math.inf:
                raise ValueError(f"pi-values are positive reals, got {v!r}")
        return f(preimage(sb, ref, [math.log(v) for v in values], tol))

    return g
