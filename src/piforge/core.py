"""Dimensions, positive quantities, and monomial combination maps.

A `DimSystem` declares an ordered list of fundamental dimensions; a
`DimVector` is an exact rational exponent vector over them; a `Quantity`
pairs a dimension with a strictly positive magnitude stored as its natural
log. Magnitude arithmetic therefore happens additively in log space (closed
under rational powers, numerically tame), while dimension arithmetic is
always exact.

A `Monomial` is a product-of-powers map x1^e1 * ... * xk^ek identified with
its exponent vector; `qty_combine` / `dim_combine` apply one to quantities or
dimensions. `reduce_dims` makes the one exact `exactlin.Reduction` of a
dimension list's matrix D that pi bases, `row_space` and `is_consistent` read.
It keeps the last list it reduced with that reduction, so a later call on
the very same `DimVector` objects, slot for slot, makes no new elimination;
an equal list built from other objects reduces again.

`log_combine` is the one-shot float path and the reference for
`log_values_kernel`, a straight-line function giving the same floats for a
basis that runs many records (`pigroups.PiBasis`). One generated projection
(`_orbit_gap_maker`) serves both `row_space`, whose Gram-Schmidt takes each
row's residual against the rows before it, and `orbit_gap_kernel`, the one
path to a log vector's distance from the span of those rows: its code
depends on the slot count alone and is compiled once per slot count per
process, and each caller closes it over its own rows. `record_reader`, a
basis's third kernel, is made the same way: compiled once per slot count
(`_reader_maker`) and closed over a basis's own dims, it reads a record's
quantity lists into log lists by the rule "identity, else `check_dims`".
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import cache, cached_property

from .errors import (
    ArityMismatchError,
    DimensionMismatchError,
    EvaluationError,
    NotABasisError,
    SystemMismatchError,
    frozen,
)
from .exactlin import QMatrix, Reduction, as_rational, eliminate

DEFAULT_TOL = 1e-9
_BEYOND_FLOATS = "lies beyond the float range, about 1.8e+308, which the float path needs"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def check_tol(tol: float) -> None:
    """Reject a NaN or a negative tolerance: every comparison with NaN is
    false, and no distance is below a negative bound, so a verdict read off
    either would be wrong without any error. 0 and inf are valid."""
    if math.isnan(tol):
        raise ValueError("tol must be a number, got nan")
    if tol < 0:
        raise ValueError(f"tol must be at least 0, got {tol!r}")


@frozen
class DimSystem:
    """Ordered, distinct fundamental dimension names, e.g. ("M", "L", "T")."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("a dimension system needs at least one fundamental")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate fundamental names in {self.names}")
        if any(not n for n in self.names):
            raise ValueError("fundamental names must be nonempty")

    @property
    def size(self) -> int:
        return len(self.names)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown fundamental {name!r}") from None


def monomial_text(names, exponents, sep: str) -> str:
    """name^e factors joined by sep, zero exponents left out, "1" if none."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 0:
            continue
        if e == 1:
            parts.append(name)
        elif e.denominator == 1:
            parts.append(f"{name}^{e}")
        else:
            parts.append(f"{name}^({e})")
    return sep.join(parts) if parts else "1"


class _ExponentVector:
    """The float form of an `exponents` tuple, for sums over log magnitudes;
    shared by DimVector and Monomial. Dimension typing reads `exponents`."""

    @cached_property
    def _float_terms(self) -> tuple[tuple[int, float], ...]:
        try:
            return tuple((j, float(e)) for j, e in enumerate(self.exponents) if e != 0)
        except OverflowError:
            raise EvaluationError(f"an exponent {_BEYOND_FLOATS}") from None

    def log_combine(self, logs) -> float:
        """float(e_j) * logs[j] summed over the nonzero exponents in index
        order, starting at 0.0; `logs` holds an entry per exponent. For a
        Monomial, the log magnitude of the combination at the given log
        magnitudes; for a DimVector, the log of the factor by which a
        quantity of that dimension scales when fundamental j scales by
        exp(logs[j])."""
        total = 0.0
        for j, e in self._float_terms:
            total += e * logs[j]
        return total


@frozen
class DimVector(_ExponentVector):
    """Exact exponent vector over a DimSystem; the zero vector is dimensionless."""

    system: DimSystem
    exponents: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.exponents) != self.system.size:
            raise ValueError(
                f"{len(self.exponents)} exponents for {self.system.size} fundamentals"
            )
        for e in self.exponents:
            # the class test first: isinstance on ABCMeta, Fraction's metaclass, is slow
            if e.__class__ is not Fraction and not isinstance(e, (Fraction, int)):
                raise TypeError(f"expected an exact rational, got {type(e).__name__}")

    @classmethod
    def zero(cls, system: DimSystem) -> "DimVector":
        return cls(system, (_ZERO,) * system.size)

    @classmethod
    def unit(cls, system: DimSystem, name: str) -> "DimVector":
        axis = system.axis(name)
        return cls(system, tuple(_ONE if i == axis else _ZERO for i in range(system.size)))

    @classmethod
    def of(cls, system: DimSystem, **exponents) -> "DimVector":
        vec = [_ZERO] * system.size
        for name, value in exponents.items():
            vec[system.axis(name)] = as_rational(value)
        return cls(system, tuple(vec))

    def _check_system(self, other: "DimVector"):
        if self.system != other.system:
            raise SystemMismatchError(
                f"cannot combine dimensions over {self.system.names} and {other.system.names}"
            )

    def __mul__(self, other: "DimVector") -> "DimVector":
        self._check_system(other)
        return DimVector(self.system, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "DimVector") -> "DimVector":
        self._check_system(other)
        return DimVector(self.system, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, exponent) -> "DimVector":
        e = as_rational(exponent)
        return DimVector(self.system, tuple(a * e for a in self.exponents))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __str__(self) -> str:
        return monomial_text(self.system.names, self.exponents, "*")


@frozen
class Quantity:
    """A strictly positive magnitude (stored as its natural log) with a dimension."""

    log_magnitude: float
    dim: DimVector

    def __post_init__(self):
        if not math.isfinite(self.log_magnitude):
            raise ValueError("quantity magnitudes must be finite and strictly positive")

    @classmethod
    def from_magnitude(cls, magnitude: float, dim: DimVector) -> "Quantity":
        """The quantity of a finite positive real magnitude: ValueError for
        anything else, a bool, a string and an int past the float range too."""
        try:
            value = math.nan if isinstance(magnitude, (bool, str)) else float(magnitude)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not 0 < value < math.inf:
            raise ValueError(f"magnitude must be a finite positive real, got {magnitude!r}")
        return cls(math.log(value), dim)

    @classmethod
    def one(cls, system: DimSystem) -> "Quantity":
        """The multiplicative identity: magnitude 1, dimensionless."""
        return cls(0.0, DimVector.zero(system))

    @property
    def magnitude(self) -> float:
        return math.exp(self.log_magnitude)

    def close_to(self, other: "Quantity", tol: float = DEFAULT_TOL) -> bool:
        """Equal dimension and log magnitudes within an absolute tolerance.

        Dimensions compare exactly; only the magnitude side is tolerant
        (decimal literals cannot hit exact logs).
        """
        check_tol(tol)
        return self.dim == other.dim and abs(self.log_magnitude - other.log_magnitude) <= tol

    def __mul__(self, other: "Quantity") -> "Quantity":
        return Quantity(self.log_magnitude + other.log_magnitude, self.dim * other.dim)

    def __truediv__(self, other: "Quantity") -> "Quantity":
        return Quantity(self.log_magnitude - other.log_magnitude, self.dim / other.dim)

    def __pow__(self, exponent) -> "Quantity":
        e = as_rational(exponent)
        return Quantity(self.log_magnitude * float(e), self.dim**e)

    def __str__(self) -> str:
        return f"{format_magnitude(self.log_magnitude)} [{self.dim}]"


@frozen
class Monomial(_ExponentVector):
    """A monomial map x1^e1 * ... * xk^ek, identified with its exponent vector."""

    exponents: tuple[Fraction, ...]

    @classmethod
    def of(cls, *exponents) -> "Monomial":
        return cls(tuple(as_rational(e) for e in exponents))

    @classmethod
    def projection(cls, index: int, arity: int) -> "Monomial":
        if not 0 <= index < arity:
            raise ValueError(f"projection index {index} outside 0..{arity - 1}")
        return cls(tuple(_ONE if i == index else _ZERO for i in range(arity)))

    @property
    def arity(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.exponents) + ")"


def project(x: Quantity) -> DimVector:
    """The projection of a quantity onto its dimension (the coset map)."""
    return x.dim


def _shared_system(ws, system: DimSystem | None) -> DimSystem:
    if ws:
        found = ws[0].system
        if any(w.system != found for w in ws[1:]):
            raise SystemMismatchError("dimension span multiple dimension systems")
        return found
    if system is None:
        raise ValueError("an empty dimension list needs an explicit dimension system")
    return system


def dim_combine(p: Monomial, ws, system: DimSystem | None = None) -> DimVector:
    """Apply a monomial map to dimensions: the weighted sum of exponent vectors.

    The 0-input combination yields the zero (dimensionless) vector; `system`
    is only needed in that case.
    """
    ws = list(ws)
    if p.arity != len(ws):
        raise ArityMismatchError(f"{p.arity}-input combination applied to {len(ws)} dimensions")
    sys_ = _shared_system(ws, system)
    exps = [_ZERO] * sys_.size
    for coeff, w in zip(p.exponents, ws):
        if coeff == 0:
            continue
        for i, e in enumerate(w.exponents):
            exps[i] += coeff * e
    return DimVector(sys_, tuple(exps))


def qty_combine(p: Monomial, xs, system: DimSystem | None = None) -> Quantity:
    """Apply a combination to quantities: x1^l1 * ... * xk^lk.

    Log magnitudes add with float exponent weights; the dimension part is
    exact. The 0-input combination returns the identity quantity 1.
    """
    xs = list(xs)
    dim = dim_combine(p, [x.dim for x in xs], system)
    return Quantity(p.log_combine([x.log_magnitude for x in xs]), dim)


def coordinate(x: Quantity, s: Quantity) -> float:
    """The unique positive a with x = a*s, for x and s of equal dimension."""
    if x.dim != s.dim:
        raise DimensionMismatchError(f"coordinate needs equal dimensions: {x.dim} vs {s.dim}")
    return math.exp(x.log_magnitude - s.log_magnitude)


def check_dims(dims, xs, label: str) -> None:
    """xs must carry the dimension tuple dims, slot for slot; else
    DimensionMismatchError, naming xs by label and the first wrong slot.
    One tuple comparison, identity before ==, passes xs built over the very
    DimVector objects of dims; only a list that differs somewhere, or holds
    equal copies (quantity literals, say), goes on to the slot loop."""
    if tuple([x.dim for x in xs]) == dims:
        return
    if len(xs) != len(dims):
        raise DimensionMismatchError(f"{label} has {len(xs)} slots for {len(dims)} dimensions")
    for i, (x, w) in enumerate(zip(xs, dims)):
        if x.dim != w:
            raise DimensionMismatchError(f"{label}[{i}] has dimension {x.dim}, expected {w}")


def magnitude_or_limit(log_magnitude: float) -> float:
    """exp(log_magnitude) as a float: inf above the float range, 0.0 below it."""
    try:
        return math.exp(log_magnitude)
    except OverflowError:
        return math.inf


def format_magnitude(log_magnitude: float) -> str:
    """exp(log_magnitude) with 15 significant digits, as format(x, ".15g")
    prints a float, also where the value lies outside the normal float range
    (then from its base-10 logarithm, e.g. "1e+400"). Past a base-10
    exponent of 1e15 a float log holds less than one digit of the mantissa,
    so the exponent itself prints, e.g. "10^-4.34294481903252e+299". A NaN,
    which a sum of terms that overflow to opposite infinities gives, raises
    EvaluationError."""
    value = magnitude_or_limit(log_magnitude)
    if sys.float_info.min <= value < math.inf:
        return format(value, ".15g")
    if math.isnan(log_magnitude):
        raise EvaluationError(f"a term of a magnitude {_BEYOND_FLOATS}")
    exponent10 = log_magnitude / math.log(10)
    if abs(exponent10) >= 1e15:
        return f"10^{exponent10:.15g}"
    exponent = math.floor(exponent10)
    # |exponent10| > 307 here, where floats lie at least 2^-44 apart, so the
    # fraction stays below 1 - 5.6e-14 and the mantissa prints below 10
    mantissa = format(10 ** (exponent10 - exponent), ".15g")
    return f"{mantissa}e{exponent:+d}"


def dimension_matrix(system: DimSystem, ws) -> QMatrix:
    """The d x n matrix whose column i holds the fundamental exponents of ws[i]."""
    ws = list(ws)
    for w in ws:
        if w.system != system:
            raise SystemMismatchError("dimension matrix inputs must share the given system")
    d, n = system.size, len(ws)
    flat = tuple(ws[i].exponents[j] for j in range(d) for i in range(n))
    return QMatrix(d, n, flat)


# (ws, reduction) of the last `reduce_dims` call; read once, replaced whole
_last_reduction: tuple[tuple, Reduction | None] = ((), None)


def reduce_dims(ws) -> Reduction:
    """The one exact `exactlin.Reduction` (integer RREF rows, pivot columns,
    rank) of the dimension matrix D of the nonempty sequence ws. Pivots, free
    slots, `exactlin.canonical_kernel` and `row_space` all read off it.

    The last list reduced is kept with its reduction. A call whose ws holds
    the very same DimVector objects, slot for slot (`is`, not ==), gets that
    reduction back with no new elimination; dimensions and reductions are
    immutable, so it is what a fresh `eliminate` would give. An equal list
    built from other objects reduces again."""
    global _last_reduction
    if not ws:
        raise NotABasisError("a pi basis needs at least one dimension slot")
    kept_ws, kept = _last_reduction
    if len(kept_ws) == len(ws) and all(map(operator.is_, kept_ws, ws)):
        return kept
    reduction = eliminate(dimension_matrix(ws[0].system, ws))
    _last_reduction = (tuple(ws), reduction)
    return reduction


def row_space(reduction: Reduction) -> tuple[tuple[float, ...], ...]:
    """Orthonormal rows spanning lambda^T D, the log shifts of ws under
    rescalings, read off `reduce_dims(ws)` with no elimination: modified
    Gram-Schmidt on the nonzero RREF rows, which hold the identity at their
    pivots and so are well conditioned; `v / pivot` on the integer rows is
    correctly rounded, as `float(Fraction)` is. Each row loses its component
    along the rows before it through the orbit-gap code's `residual`
    (`_orbit_gap_maker`), closed over the list of rows as it grows. A
    ratio, or a row norm, beyond the float range raises EvaluationError."""
    rows = []
    residual = _orbit_gap_maker(reduction.shape[1])(rows)[0]
    for row, pc in zip(reduction.int_rows, reduction.pivot_cols):
        try:
            row = residual([v / row[pc] for v in row])
        except OverflowError:  # an integer ratio, or a dot product, past the float range
            row = [math.inf]
        norm = math.hypot(*row)
        if norm == math.inf:
            raise EvaluationError(f"a ratio of dimension exponents {_BEYOND_FLOATS}")
        rows.append(tuple(a / norm for a in row))
    return tuple(rows)


def compile_source(source: str, name: str, **names):
    """The value `name` that source defines, run with the given globals.
    Each source (here and in `dsl` and `harness`) holds only float reprs,
    integer indices and names made by the program, never a string from
    outside it: a spec's text reaches a source only as a global's value."""
    namespace = dict(names)
    exec(source, namespace)
    return namespace[name]


def slot_names(prefix: str, n: int) -> str:
    """ "p0, p1, ..., " for n slots: a tuple's items, its unpacking, or a
    parameter list."""
    return "".join(f"{prefix}{j}, " for j in range(n))


def log_values_kernel(vectors, n: int):
    """A function of an n-slot log list that returns the tuple of
    `v.log_combine(logs)` over the exponent vectors, float for float: one
    straight-line sum per vector, `0.0 + e*l[j] + ...` over its
    `_float_terms` in their order, each e inlined as its float repr, which
    reads back as that very float. The list must hold n entries. An
    exponent beyond the float range raises EvaluationError here, as
    `log_combine` would."""
    sums = "".join("0.0" + "".join(f" + {e!r}*l{j}" for j, e in v._float_terms) + ", "
                   for v in vectors)
    return compile_source(f"def log_values(l):\n ({slot_names('l', n)}) = l\n return ({sums})",
                          "log_values")


@cache
def _orbit_gap_maker(n: int):
    """`make(rows)` -> `(residual, orbit_gap)` for n-slot log vectors,
    compiled once per n per process: `residual(v)`, the tuple of v's slots
    less v's component along each orthonormal row in turn, each dot product
    one `fsum` of the products in slot order, and `orbit_gap(v)`, `hypot`
    of those slots. Both run one loop body, written once here and unrolled
    over the slots, so the source holds slot indices only, no row count and
    no float of any basis, and the table keeps code alone and grows with
    the distinct slot counts, not the bases."""
    v, u = slot_names("v", n), slot_names("u", n)
    body = [f"  ({v}) = v", f"  for ({u}) in rows:",
            f"   c = fsum(({''.join(f'v{j}*u{j}, ' for j in range(n))}))",
            *(f"   v{j} -= c*u{j}" for j in range(n))]
    lines = ["def make(rows):", " def residual(v):", *body, f"  return ({v})",
             " def orbit_gap(v):", *body, f"  return hypot({v})", " return residual, orbit_gap"]
    return compile_source("\n".join(lines), "make", fsum=math.fsum, hypot=math.hypot)


def orbit_gap_kernel(rows, n: int):
    """A function of an n-slot log vector that returns its distance from
    the span of the orthonormal rows, `hypot(*residual(logs))` float for
    float, with `residual` from the same `_orbit_gap_maker(n)(rows)`. The
    rows are data, the kernel's closure cell, so the source depends on n
    alone: its code is compiled once per n per process and shared, while
    each call gets its own closure over its own rows. The vector must hold
    n entries."""
    return _orbit_gap_maker(n)(rows)[1]


@cache
def _reader_maker(n: int):
    """`make(dims)` -> `(logs, delta)` for n-slot quantity lists, compiled
    once per n per process: one unrolled pass that unpacks each list and
    tests every slot's `dim` by `is` against dims, xs's slots before ys's.
    A list that does not unpack into n slots (another length, or no
    sequence at all) leaves the pass as a wrong slot does. Like
    `_orbit_gap_maker`, the source holds slot indices only, and the table
    keeps code alone: dims is the closure's data."""
    x, y, d = slot_names("x", n), slot_names("y", n), slot_names("d", n)
    xs_own = " and ".join(f"x{j}.dim is d{j}" for j in range(n))
    ys_own = " and ".join(f"y{j}.dim is d{j}" for j in range(n))
    logs = "".join(f"x{j}.log_magnitude, " for j in range(n))
    deltas = "".join(f"x{j}.log_magnitude - y{j}.log_magnitude, " for j in range(n))
    lines = [
        "def make(dims):",
        f" ({d}) = dims",
        " def logs(xs, label):",
        "  try:",
        f"   ({x}) = xs",
        "  except (ValueError, TypeError):",
        "   pass",
        "  else:",
        f"   if {xs_own}:",
        f"    return ({logs})",
        "  check_dims(dims, xs, label)",
        "  return [x.log_magnitude for x in xs]",
        " def delta(xs, ys):",
        "  try:",
        f"   ({x}) = xs",
        f"   ({y}) = ys",
        "  except (ValueError, TypeError):",
        "   return None",
        f"  if {xs_own} and {ys_own}:",
        f"   return [{deltas}]",
        "  return None",
        " return logs, delta",
    ]
    return compile_source("\n".join(lines), "make", check_dims=check_dims)


def record_reader(dims):
    """`(logs, delta)`, the log magnitudes of quantity lists over the
    dimension tuple dims, read in one pass when every slot's `dim` is the
    very DimVector object of dims (identity, else `check_dims`):

    - `logs(xs, label)`: the tuple of xs's log magnitudes when every slot
      passes by identity; otherwise `check_dims(dims, xs, label)`, which
      raises or passes equal copies, then the list of xs's log magnitudes.
    - `delta(xs, ys)`: the list of `x.log_magnitude - y.log_magnitude`
      when both lists pass by identity; otherwise None, and the caller
      checks the lists itself.

    Its code is `_reader_maker(len(dims))`, compiled once per slot count per
    process and shared; each call closes it over its own dims."""
    return _reader_maker(len(dims))(dims)
