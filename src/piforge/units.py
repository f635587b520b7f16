"""Unit registries, the consistency test, and fundamental-unit expression.

A registry stores named units as Quantity values in an implicit coherent
reference system (whatever the registry file declares; there is no hidden SI
assumption). A list of units is *consistent* when no product of powers of
them is dimensionless yet different from 1 — `is_consistent` decides it by
the distance of the units' logs from the rescaling orbit, and names a clash
(e.g. cm/hr/knot, by a factor of 185200), off one `core.reduce_dims`.
"""

from __future__ import annotations

from . import dsl
from .core import (
    DEFAULT_TOL,
    DimSystem,
    DimVector,
    Monomial,
    Quantity,
    check_tol,
    dimension_matrix,
    format_magnitude,
    magnitude_or_limit,
    orbit_gap_kernel,
    qty_combine,
    reduce_dims,
    row_space,
)
from .errors import (
    DependentBaseError,
    EmptyListError,
    InconsistentUnitsError,
    NoSolutionError,
    ParseError,
    SystemMismatchError,
    UnknownUnitError,
    frozen,
)
from .exactlin import canonical_kernel, rank, solve_each


@frozen
class ClashWitness:
    """A product of powers of the units that is dimensionless but not 1.

    The factor it comes to is kept as its natural log, which stays finite
    where the factor itself lies beyond the float range; print it with
    `format_magnitude(log_clash_factor)`.
    """

    combo: Monomial
    log_clash_factor: float

    @property
    def clash_factor(self) -> float:
        """The factor as a float: inf or 0.0 beyond the float range."""
        return magnitude_or_limit(self.log_clash_factor)


@frozen
class ConsistencyReport:
    consistent: bool
    witness: ClashWitness | None

    def __post_init__(self):
        if self.consistent == (self.witness is not None):
            raise ValueError("witness must be present exactly when inconsistent")


class UnitRegistry:
    """Named units over one dimension system; immutable after construction."""

    def __init__(self, system: DimSystem, entries: dict[str, Quantity]):
        for name, q in entries.items():
            if q.dim.system != system:
                raise SystemMismatchError(f"unit {name!r} is not over {system.names}")
        self.system = system
        self._entries = dict(entries)

    def quantity(self, name: str) -> Quantity:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownUnitError(
                f"unknown unit {name!r} (registry has: {', '.join(self._entries) or 'nothing'})"
            ) from None

    @classmethod
    def from_dict(cls, raw: dict, source: str = "<dict>") -> "UnitRegistry":
        system = dsl.system_of_object(raw, "registry", source, ("system", "units"), ParseError)
        if not isinstance(raw["units"], dict):
            raise ParseError(f"registry {source}: 'units' must be an object")
        entries: dict[str, Quantity] = {}
        for name, spec in raw["units"].items():
            if not isinstance(spec, dict):
                raise ParseError(f"registry {source}: unit {name!r} must be an object")
            magnitude = spec.get("magnitude")
            if isinstance(magnitude, str) and dsl.NUMBER.fullmatch(magnitude):
                magnitude = float(magnitude)
            try:
                scale = Quantity.from_magnitude(magnitude, DimVector.zero(system))
            except ValueError:
                raise ParseError(
                    f"registry {source}: unit {name!r} needs a finite positive 'magnitude'"
                ) from None
            if not isinstance(spec.get("dim"), str):
                raise ParseError(f"registry {source}: unit {name!r} needs a 'dim' string")
            try:
                dim = dsl.parse_dimension(spec["dim"], system)
            except ParseError as exc:
                raise type(exc)(f"registry {source}: unit {name!r}: {exc}") from exc
            entries[name] = Quantity(scale.log_magnitude, dim)
        return cls(system, entries)

    @classmethod
    def load(cls, path) -> "UnitRegistry":
        return cls.from_dict(dsl.read_json(path, "registry", ParseError), source=str(path))


def is_consistent(units, tol: float = DEFAULT_TOL, reduction=None) -> ConsistencyReport:
    """Decide consistency of a unit list.

    Every dimensionless product of powers of the units is 1 iff their log
    vector lies in the row space of the dimension matrix. A list of full
    rank (rank = number of units) has no such product but the empty one, so
    it is consistent with no float work. Otherwise tol bounds the log
    vector's distance from the row space (`core.orbit_gap_kernel`, its
    closure kept on no basis), whatever the basis or slot order.
    A clash's witness is the canonical kernel vector with the largest |log|.

    Rank, row space and witness read off one `core.reduce_dims` of the
    units' dimensions, which makes no elimination when its slot holds an
    equal dimension list. A caller that holds that reduction already, for
    units it has checked to carry a basis's dimensions slot for slot,
    passes it as reduction, and no `reduce_dims` runs.
    """
    check_tol(tol)
    units = list(units)
    if not units:
        raise EmptyListError("consistency is defined for nonempty unit lists")
    logs = [u.log_magnitude for u in units]
    if reduction is None:
        reduction = reduce_dims([u.dim for u in units])
    if reduction.rank == len(units) or (
        orbit_gap_kernel(row_space(reduction), len(logs))(logs) <= tol
    ):
        return ConsistencyReport(consistent=True, witness=None)
    combo = max(map(Monomial, canonical_kernel(reduction)), key=lambda c: abs(c.log_combine(logs)))
    return ConsistencyReport(consistent=False, witness=ClashWitness(combo, combo.log_combine(logs)))


def require_consistent(units, tol: float, error=InconsistentUnitsError, what="unit list", reduction=None):
    """Raise error, naming the clash factor, unless the unit list is
    consistent (`is_consistent`, which reads reduction where given)."""
    report = is_consistent(units, tol, reduction)
    if not report.consistent:
        raise error(f"{what} clashes by factor {format_magnitude(report.witness.log_clash_factor)}")


def fundamental_basis(units, tol: float = DEFAULT_TOL) -> list[Quantity]:
    """A maximal sub-list with linearly independent dimensions.

    Takes the pivot columns of the dimension matrix in input order (the first
    maximal independent subfamily); every input unit is then an exact-dimension
    combination of the result. Requires a consistent input list.
    """
    units = list(units)
    require_consistent(units, tol)
    return [units[i] for i in reduce_dims([u.dim for u in units]).pivot_cols]


def express(base, targets, tol: float = DEFAULT_TOL) -> list[Monomial]:
    """Coefficients expressing each target as a product of powers of the base.

    The base dimensions must be linearly independent, so each coefficient
    vector is unique once it exists; NoSolutionError means no combination of
    the base equals the target (target dimension outside the span, or the
    magnitudes disagree beyond tol in log space). A target over another
    dimension system raises SystemMismatchError.
    """
    check_tol(tol)
    base = list(base)
    targets = list(targets)
    if not base:
        raise DependentBaseError("an empty base spans nothing")
    system = base[0].dim.system
    matrix = dimension_matrix(system, [u.dim for u in base])
    if rank(matrix) < len(base):
        raise DependentBaseError("base dimensions are linearly dependent")
    # One elimination solves every target before the first one over another
    # system; the targets are then checked in order, that one last.
    over = next((i for i, t in enumerate(targets) if t.dim.system != system), len(targets))
    solutions = solve_each(matrix, [t.dim.exponents for t in targets[:over]])
    results = []
    for target, coeffs in zip(targets, solutions):
        if coeffs is None:
            raise NoSolutionError(f"target dimension {target.dim} is outside the span of the base")
        combo = Monomial(coeffs)
        reproduced = qty_combine(combo, base)
        if abs(reproduced.log_magnitude - target.log_magnitude) > tol:
            raise NoSolutionError(
                "no base combination reaches the target: the unique dimension-matched "
                f"combination differs in magnitude by factor "
                f"{format_magnitude(reproduced.log_magnitude - target.log_magnitude)}"
            )
        results.append(combo)
    if over < len(targets):
        raise SystemMismatchError(f"target {targets[over].dim} is not over {system.names}")
    return results
