"""Randomized dimensional-invariance testing.

A `Rescaling` multiplies every quantity by the product of fundamental factors
raised to that quantity's exponents — exactly what switching between two
consistent unit systems does to the numbers. `fuzz_invariance` drives a
relation with random bindings and random rescalings and reports the first
trial on which the truth value changes, with full reproduction data.

Each trial evaluates the relation once, at the drawn point. Every node of a
well-typed relation is homogeneous of its dimension (sums need equal
dimensions, functions dimensionless operands, constants are dimensionless),
so at λ·xs a node of dimension d takes λ^d times its value at xs. A
comparison between two sides of one dimension therefore keeps its truth
value under every rescaling (Kennedy, "Relational parametricity and units of
measure", POPL 1997), and only a mixed comparison, whose side dimensions
differ by w, is decided again: positive factors keep the signs of its sides,
and log factors μ move its gap log|L| - log|R| by w·μ.

A relation with no mixed comparison therefore passes every trial whose drawn
point lies in its domain. Before drawing any, one interval pass (`_bounds`,
Moore's interval arithmetic over the box the trials draw from, each bound
widened well past float rounding) tries to prove every such point in the
domain; where it does, every trial passes, none is drawn, and nothing of the
relation runs. `_bounds` converts each node's operands to the space that
`dsl.SPACES` names, as lowering does, and like every walker here it
dispatches on the node's exact class. The relation is typed once per spec,
whole, and its comparisons' dimensions are read off that one handle.

The exact work is done once per spec, and a trial runs plain floats: where
trials are drawn, the plan compiles one trial kernel (`_trial_kernel`). Its
`decide` is a straight-line function of a point's logs and log factors that
seeds the point and decides each comparison before and after rescaling,
every side and every constant of the decision inlined from one
`dsl.Lowering` of the relation (partial evaluation: Jones, Gomard and
Sestoft, 1993); its `trial` reads a point off the trial's blake2b digest
and calls `decide`; its `shrink`, at a failing trial's point, runs
`decide`'s lines up to the first that reads a log factor once, and the rest
once per candidate, as it bisects the factors a mixed comparison reads.
Compiling it takes 0.6 to 1.5 ms, once per plan, against about 3 us a trial.

Passes are evidence, not proof — the verdict is necessarily one-sided, and
the CLI report says so. A failure is meant to be definitive, but is not yet
always: cancellation in a sum or a log can give a false counterexample (the
strict xfails in `tests/test_cli.py::TestKnownFalseCounterexamples`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

try:  # hashlib's own blake2b, without the OpenSSL bindings `import hashlib` loads
    from _blake2 import blake2b
except ImportError:  # an interpreter built without the bundled BLAKE2
    from hashlib import blake2b

from .core import (
    DEFAULT_TOL,
    DimSystem,
    Quantity,
    check_tol,
    compile_source,
    format_magnitude,
    magnitude_or_limit,
    slot_names,
)
from .dsl import (
    BOOL,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    LOG,
    Lowering,
    Not,
    Pow,
    ProblemSpec,
    TRUTH,
    Var,
    children,
    compile_relation,
    evaluate,
    free_variables,
    log_eq_bound,
    node_spaces,
)
from .errors import (
    DimensionError,
    DimensionMismatchError,
    EvaluationError,
    SpecError,
    frozen,
)

_LOG_MAG_RANGE = (math.log(1e-3), math.log(1e3))
_LOG_FACTOR_RANGE = (math.log(1e-2), math.log(1e2))
_SHRINK_ROUNDS = 20


@frozen
class Rescaling:
    """One positive factor per fundamental dimension, in log space."""

    system: DimSystem
    log_factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.log_factors) != self.system.size:
            raise ValueError("one factor per fundamental dimension required")
        if not all(map(math.isfinite, self.log_factors)):
            raise ValueError("rescaling factors must be finite and nonzero")

    @classmethod
    def from_factors(cls, system: DimSystem, factors: Sequence[float]) -> "Rescaling":
        if any(f <= 0 for f in factors):
            raise ValueError("rescaling factors must be positive")
        return cls(system, tuple(math.log(f) for f in factors))

    @classmethod
    def identity(cls, system: DimSystem) -> "Rescaling":
        return cls(system, (0.0,) * system.size)

    @property
    def factors(self) -> tuple[float, ...]:
        return tuple(math.exp(f) for f in self.log_factors)


def rescale(xs: Sequence[Quantity], r: Rescaling) -> list[Quantity]:
    """Multiply each quantity by prod_j factor_j^(exponent of fundamental j)."""
    out = []
    system, log_factors = r.system, r.log_factors
    for x in xs:
        dim = x.dim
        if dim.system is not system and dim.system != system:
            raise DimensionMismatchError("rescaling and quantities use different systems")
        out.append(Quantity(x.log_magnitude + dim.log_combine(log_factors), dim))
    return out


@frozen
class Counterexample:
    """A failing trial. Each binding is kept as its log magnitude, which stays
    finite where the magnitude lies beyond the float range."""

    trial_index: int
    log_bindings: dict[str, float]
    factors: dict[str, float]
    before: bool
    after: bool

    @property
    def bindings(self) -> dict[str, float]:
        """The binding magnitudes as floats: inf or 0.0 beyond the float range."""
        return {name: magnitude_or_limit(v) for name, v in self.log_bindings.items()}


@frozen
class InvarianceReport:
    """`inapplicable` counts the trials whose drawn bindings fell outside the
    relation's domain, and `undecided` those on which a mixed comparison lay
    within rounding of its decision edge; they neither pass nor fail."""

    trials: int
    passed: int
    seed: int
    counterexample: Counterexample | None
    inapplicable: int = 0
    undecided: int = 0

    def __post_init__(self):
        failed = self.passed + self.inapplicable + self.undecided < self.trials
        if (self.counterexample is None) == failed:
            raise ValueError("counterexample must be present exactly when a trial failed")


def _equality_seed_target(spec: ProblemSpec) -> tuple[str, object] | None:
    """(variable, other side) when the relation is `v = expr` with v absent
    from expr — the one shape where random bindings would never land on the
    truth set, so each trial solves for v instead."""
    node = spec.relation
    if not (isinstance(node, Compare) and node.op == "="):
        return None
    for side, other in ((node.left, node.right), (node.right, node.left)):
        if isinstance(side, Var) and side.name not in free_variables(other):
            return side.name, other
    return None


class _Undecided(Exception):
    """A mixed comparison's gap lies within its rounding bound of the edge."""


def _size(node) -> int:
    """The nodes of a quantity-valued expression: each rounds at most once."""
    kind = node.__class__
    if kind is BinOp or kind is Pow or kind is Call:
        return 1 + sum(map(_size, children(node)))
    return 1


def _apart(tol: float) -> float:
    """'=' holds between sides of opposite signs where |gap| >= this."""
    return -math.log(tol - 1) if tol > 1 else math.inf


class _Mixed:
    """A comparison whose sides L and R differ in dimension, by w = dL - dR.

    At the drawn point its sides give (sL, lL, sR, lR), each sign and log of
    the absolute value. Rescaled by log factors μ, the signs stay and the gap
    lL - lR moves by w·μ. Signs that differ, or a side that is 0, decide
    alone, except that '=' between opposite signs reads the gap for tol
    between 1 and 2; signs that agree leave it to the gap. '=' holds between
    sides of one sign where |gap| <= `dsl.log_eq_bound(tol)`, and between
    sides of opposite signs where |gap| >= `_apart(tol)`.

    Within `bound` times its spread (1 + |lL| + |lR| + the sum of |w_j μ_j|),
    a gap is too close to the decision edge to decide: a first-order rounding
    bound of one unit roundoff per node of either side, per term of w·μ and
    per step of the gap. The trial kernel decides in floats (`decision`); a
    gap it leaves open goes to `exact`."""

    def __init__(self, node, left_dim, right_dim):
        self.op = node.op
        self.w = (left_dim / right_dim).exponents
        # (j, w_j) for each nonzero w_j: a zero term moves neither gap nor spread
        try:
            self.terms = tuple((j, float(w)) for j, w in enumerate(self.w) if w)
        except OverflowError:
            self.terms = None
        self.bound = (_size(node.left) + _size(node.right) + len(self.w) + 2) * math.ulp(1.0)

    def decision(self, name: str, point, gap: str, spread: str, mu: str) -> str:
        """Source of the truth value, from the point's signs and logs, the
        gap and spread (each source of a local, slot or literal; a
        log-space side's sign is the literal 1) and mu, the source of the
        log factors' tuple: signs that decide alone do so; else the gap
        decides it, in floats where it lies beyond bound*spread from the
        edge, and through `name.exact` otherwise. The kernel's locals near
        and apart hold the bounds of '=' for its tol."""
        sl, ll, sr, lr = point
        exact = f"{name}.exact({sl}, {ll}, {sr}, {lr}, {mu}, tol, {spread})"

        def beyond(x, edge):  # x < edge, where the gap is clear of the edge
            return f"{x} < {edge} if abs({x} - {edge}) > {self.bound!r}*{spread} else {exact}"

        positive = sl == sr == "1"
        if self.op != "=":
            same = beyond(gap if positive else f"({gap} if {sl} > 0 else -{gap})", "0.0")
            return same if positive else f"{sl} {self.op} {sr} if {sl} != {sr} or not {sl} else {same}"
        same = beyond(f"abs({gap})", "near")
        if positive:
            return same
        return (f"({sl} == {sr} or tol >= 1) if not ({sl} and {sr}) "
                f"else ({beyond(f'-abs({gap})', '-apart')}) if {sl} != {sr} else ({same})")

    def exact(self, sl, ll, sr, lr, mu, tol, spread) -> bool:
        """The truth value where `decision`'s float test left it open, for
        signs that do not decide alone. Where that test's spread is finite,
        the gap lay within its rounding bound of the edge: _Undecided. Where
        it is infinite (a log near the float limit, a w_j·μ_j that
        overflows, or a w with no float form), the gap, spread and bound are
        worked out exactly, in Fractions."""
        if spread != math.inf:
            raise _Undecided
        terms = [w * Fraction(m) for w, m in zip(self.w, mu)]
        gap = Fraction(ll) - Fraction(lr) + sum(terms)
        spread = 1 + abs(Fraction(ll)) + abs(Fraction(lr)) + sum(map(abs, terms))
        if sl != sr:
            x, edge = -abs(gap), -_apart(tol)
        elif self.op == "=":
            x, edge = abs(gap), log_eq_bound(tol)
        else:
            x, edge = (gap if sl > 0 else -gap), 0.0
        if math.isinf(edge):
            return edge > 0
        edge = Fraction(edge)
        if abs(x - edge) <= Fraction(self.bound) * spread:
            raise _Undecided
        return x < edge


def _sign_and_log(lowering: Lowering, side) -> tuple[str, str]:
    """Source of (sign, log of the absolute value) of a side: a log-space
    side is positive, and a linear one of 0 gives (0, 0.0)."""
    space, v = lowering.native(side)
    if space is LOG:
        return "1", v
    return lowering.let(f"({v} > 0) - ({v} < 0)"), lowering.let(f"log(abs({v})) if {v} else 0.0")


def _trial_kernel(plan):
    """kernel(tol) -> (trial, decide, shrink), compiled from one source.

    decide(*logs, *factors) takes each variable's log magnitude and, where a
    comparison is mixed, a log factor per fundamental. It seeds the equality
    target, then works out each side once, each other comparison or call
    once, and each mixed comparison before and after rescaling, its w_j·μ_j
    terms and rounding bound inlined; `and`/`or` take their right operand
    wherever either value needs it. It returns None where the truth value
    survives the rescaling, else (before, the seeded logs, the log factors).
    A relation with no mixed comparison is only evaluated, for its domain,
    a seeded `v = expr` only through expr. trial(h) is decide at the point
    drawn from h, the blake2b hash of the trial's key: h.digest() (and,
    past eight draws, `_block`'s further digests) unpacked as big-endian
    64-bit words w, each log magnitude lo + (hi - lo)*((w >> 11)*2**-53)
    over _LOG_MAG_RANGE, then each log factor over _LOG_FACTOR_RANGE. h is
    the one seam through which a caller sets the draws.

    shrink(*logs, *factors), None for a relation with no mixed comparison,
    gives the list of log factors `_shrink` reports for a failing trial's
    point and factors. It runs decide's lines in two parts. The prefix, every
    line before the first that reads a log factor (the seeding, the sides and
    the first mixed comparison's value before rescaling), runs once: it
    does not move at a fixed point, and it passed in the trial. The suffix
    runs once per candidate, in one loop over the live factors, those with
    w_j != 0 in some mixed comparison: for up to _SHRINK_ROUNDS rounds, each
    live factor in turn is halved where that keeps the truth value after
    rescaling apart from the one before; a candidate that leaves the domain
    or is undecided does not. It stops after a round that halves none. No
    truth value reads a dead factor, so halving one always keeps the
    violation, and it is halved in every one of the _SHRINK_ROUNDS rounds
    (the rounds a nonzero dead factor keeps going): it ends at
    ldexp(μ_j, -_SHRINK_ROUNDS)."""
    relation, side_dims = plan.compiled.node, iter(plan.compiled.side_dims)
    low = Lowering(plan.names)
    low.names.update(apart_bound=_apart, inf=math.inf)
    seeded = other = None
    if plan.seed_target is not None:
        name, other = plan.seed_target
        sign, log = seeded = _sign_and_log(low, other)
        seed = f"{low.slots[name]} = {log}"
        low.lines.append(seed if sign == "1" else f"if {sign} > 0: {seed}")
    factors = plan.factors if plan.mixed else 0
    logs, mus = slot_names("v", len(low.slots)), slot_names("f", factors)
    live: set[int] = set()
    split = None  # the index in low.lines of the first line that reads a log factor

    def pair(node) -> tuple[str, str]:
        """(before, after) of node, as locals."""
        nonlocal split
        kind = node.__class__
        if kind is BoolOp:
            lb, la = pair(node.left)
            # the right operand is worked out wherever either value needs it
            outer = low.branch(f"not ({lb} and {la})" if node.op == "or" else f"({lb} or {la})")
            rb, ra = pair(node.right)
            low.guard = outer
            return low.let(f"{lb} {node.op} {rb}"), low.let(f"{la} {node.op} {ra}")
        if kind is Not:
            before, after = pair(node.operand)
            return low.let(f"not {before}"), low.let(f"not {after}")
        dims = kind is Compare and next(side_dims)
        if not dims or dims[0] == dims[1]:
            before = low.value(node, TRUTH)
            return before, before
        m = _Mixed(node, *dims)
        name = low.constant(m, "m")
        sl, ll = seeded if node.left is other else _sign_and_log(low, node.left)
        sr, lr = seeded if node.right is other else _sign_and_log(low, node.right)
        point = (sl, ll, sr, lr)
        gap, spread = low.let(f"{ll} - {lr}"), low.let(f"1.0 + abs({ll}) + abs({lr})")
        before = low.let(m.decision(name, point, gap, spread, "()"))
        live.update(j for j, w in enumerate(m.w) if w)
        if split is None:
            split = len(low.lines)
        if m.terms is None:  # a w with no float form
            return before, low.let(f"{name}.exact({', '.join(point)}, ({mus}), tol, inf)")
        moves = [low.let(f"{w!r}*f{j}") for j, w in m.terms]
        gap = low.let(gap + "".join(f" + {t}" for t in moves))
        spread = low.let(spread + "".join(f" + abs({t})" for t in moves))
        return before, low.let(m.decision(name, point, gap, spread, f"({mus})"))

    verdict, shrink = "None", []
    if plan.mixed:
        before, after = pair(relation)
        verdict = f"None if {before} == {after} else ({before}, ({logs}), [{mus}])"
        dead = tuple(j for j in range(factors) if j not in live)
        settle = [f"  for j in {dead}: mu[j] = ldexp(mu[j], -{_SHRINK_ROUNDS})"] if dead else []
        low.names.update(Undecided=_Undecided, ldexp=math.ldexp)
        shrink = [f" def shrink({logs}{mus}):", *(f"  {line}" for line in low.lines[:split]),
                  f"  mu = [{mus}]",
                  f"  for _ in range({_SHRINK_ROUNDS}):",
                  "   moved = False",
                  f"   for j in {tuple(sorted(live))}:",
                  "    kept = mu[j]",
                  "    if not kept: continue",
                  "    mu[j] = kept / 2",
                  f"    {mus}= mu",
                  "    try:", *(f"     {line}" for line in low.lines[split:]),
                  f"     if {before} != {after}:",
                  "      moved = True",
                  "      continue",
                  "    except (Error, Undecided):",
                  "     pass",
                  "    mu[j] = kept",
                  "   if not moved: break", *settle, "  return mu"]
    elif seeded is None:  # a seeded `v = expr` is defined wherever expr is
        low.value(relation, TRUTH)
    ranges = [_LOG_MAG_RANGE] * len(low.slots) + [_LOG_FACTOR_RANGE] * factors
    n = len(ranges)
    draws = "".join(f"{lo!r} + {hi - lo!r}*((w{j} >> 11)*2**-53), "
                    for j, (lo, hi) in enumerate(ranges))
    unpack = []
    if n:
        from struct import Struct  # here, so that importing harness loads nothing more

        low.names.update(words=Struct(f">{n}Q").unpack_from, block=_block)
        blocks = "".join(f" + block(h, {k})" for k in range(1, (n + 7) // 8))
        unpack = [f"  {slot_names('w', n)}= words(h.digest(){blocks})"]
    lines = ["def kernel(tol):", " near = eq_bound(tol)", " apart = apart_bound(tol)",
             f" def decide({logs}{mus}):", *(f"  {line}" for line in low.lines), f"  return {verdict}",
             " def trial(h):", *unpack, f"  return decide({draws})", *shrink,
             f" return trial, decide, {'shrink' if shrink else 'None'}"]
    return compile_source("\n".join(lines), "kernel", **low.names)


def _block(h, k: int) -> bytes:
    """Block k >= 1 of a trial's draws: the blake2b digest of its key and
    f":{k}", from h, the hash of the key alone."""
    h = h.copy()
    h.update(b":%d" % k)
    return h.digest()


# Every log bound stays within ±_LOG_LIMIT, so each conversion to linear
# space (exp) stays finite and nonzero; each bound is widened outward by
# _MARGIN of itself, far above the one rounding (or libm error) an operation
# makes.
_LOG_LIMIT = 700.0
_MARGIN = 2.0**-40


def _log(lo, hi):
    lo, hi = lo - abs(lo) * _MARGIN, hi + abs(hi) * _MARGIN
    return (True, lo, hi) if -_LOG_LIMIT <= lo and hi <= _LOG_LIMIT else None


def _linear(lo, hi):
    lo, hi = lo - abs(lo) * _MARGIN, hi + abs(hi) * _MARGIN
    return (False, lo, hi) if -math.inf < lo and hi < math.inf else None


def _to(log, b):
    """Bounds b in log space (log) or linear space, converted as
    `dsl.Lowering.value` converts; None where b is unproven, a truth value,
    or may be non-positive where a log is taken."""
    if not isinstance(b, tuple):
        return None
    if b[0] is log:
        return b
    _, lo, hi = b
    if log:
        return _log(math.log(lo), math.log(hi)) if lo > 0 else None
    return _linear(math.exp(lo), math.exp(hi))


def _bounds(node, box):
    """What `dsl.Lowering` makes of node for variables whose log magnitudes
    lie in box (name -> (lo, hi)), by interval arithmetic (Moore 1966): True
    where it is a truth value defined at every point of box, (log, lo, hi)
    where it is a quantity whose value (its log if log) lies in [lo, hi]
    there. None where a point may leave the domain, or node is not a
    relation node: anything unproven. `and`/`or` need both operands proven,
    whether or not the left one decides. Each kind converts its operands
    to the space `dsl.SPACES` gives it."""
    kind = node.__class__
    if kind is Var:
        name = node.name
        return _log(*box[name]) if name in box else None
    if kind is Const:
        log_value = math.log(node.value)
        return _log(log_value, log_value)
    entry = node_spaces(node)
    if entry is None:
        return None
    log = entry[0] is LOG
    if kind is BinOp:
        op = node.op
        a, b = _to(log, _bounds(node.left, box)), _to(log, _bounds(node.right, box))
        if a is None or b is None:
            return None
        make = _log if entry[1] is LOG else _linear
        if op in ("*", "+"):
            return make(a[1] + b[1], a[2] + b[2])
        return make(a[1] - b[2], a[2] - b[1])
    if kind is Pow:
        a, e = _to(log, _bounds(node.base, box)), float(node.exponent)
        return a and _log(*sorted((a[1] * e, a[2] * e)))
    if kind is Call:
        func, a = node.func, _to(log, _bounds(node.arg, box))
        if not a:
            return None
        if func == "sqrt":
            return _log(a[1] * 0.5, a[2] * 0.5)
        if func == "is_pos_int":
            return True
        if func == "log":
            return a[1] > 0 and _linear(math.log(a[1]), math.log(a[2])) or None
        if func == "exp":
            return _to(False, _log(a[1], a[2]))
        return False, -1.0, 1.0  # sin, cos
    if kind is Compare:
        # a log side within ±_LOG_LIMIT goes linear without overflow
        sides = _bounds(node.left, box), _bounds(node.right, box)
        return all(isinstance(b, tuple) for b in sides) or None
    if kind is BoolOp:
        return _bounds(node.left, box) is True and _bounds(node.right, box) is True or None
    return _bounds(node.operand, box) is True or None  # Not


def _proven(spec: ProblemSpec, seed_target) -> bool:
    """Whether every point a trial can draw lies in the relation's domain:
    each variable's log magnitude in _LOG_MAG_RANGE, ends included, and an
    equality-seeded one also at the log of any positive value its other side
    takes.

    A seeded relation is `v = other` with v nowhere else, so it is defined
    wherever other is and v's linear form (exp of its log) stays finite.
    That needs an upper bound on v's log alone: a seeded log with no lower
    bound (other near 0) only makes exp underflow toward 0, which raises
    nothing."""
    box = dict.fromkeys(spec.variable_names, _LOG_MAG_RANGE)
    if seed_target is None:
        return _bounds(spec.relation, box) is True
    other = _bounds(seed_target[1], box)
    if not isinstance(other, tuple):
        return False
    log, _, hi = other
    # a log-space side is within ±_LOG_LIMIT already; a linear one seeds v
    # with logs up to log(hi), which must stay within _LOG_LIMIT too
    return log or hi <= 1.0 or _log(0.0, math.log(hi)) is not None


class FuzzPlan:
    """What `fuzz_invariance` derives from a spec alone, kept as the spec's
    `fuzz_plan`: `compiled`, the relation typed with mixed comparisons
    allowed (`compile_relation`; its run is compiled only if a
    counterexample is confirmed); `mixed`, whether it has a mixed
    comparison, read once off `compiled.side_dims`; `seed_target`;
    `proven`, true where it is not mixed and `_proven` holds; and `kernel`,
    its trial kernel (`_trial_kernel`), compiled on the first call that
    draws trials, so never for a proven plan. SpecError where the spec
    cannot be fuzzed."""

    def __init__(self, spec: ProblemSpec):
        try:
            compiled = compile_relation(spec.relation, spec.env)
        except DimensionError as exc:
            raise SpecError(f"relation is ill-typed: {exc}") from exc
        if compiled.type is not BOOL:
            raise SpecError("relation does not evaluate to a truth value")
        # what `rescale` would find on the variables, found before any trial
        for name, dim in zip(spec.variable_names, spec.variable_dims):
            if dim.system is not spec.system and dim.system != spec.system:
                raise DimensionMismatchError("rescaling and quantities use different systems")
            try:
                dim._float_terms
            except EvaluationError:
                raise SpecError(
                    f"variable {name!r} has a dimension exponent beyond the float range, "
                    "about 1.8e+308"
                ) from None
        self.compiled, self.seed_target = compiled, _equality_seed_target(spec)
        self.names, self.factors = spec.variable_names, spec.system.size
        self.mixed = any(left != right for left, right in compiled.side_dims)
        self.proven = not self.mixed and _proven(spec, self.seed_target)

    @cached_property
    def kernel(self):
        return _trial_kernel(self)


def fuzz_invariance(
    spec: ProblemSpec,
    trials: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> InvarianceReport:
    """Fuzz a relation for dimensional invariance.

    Per trial: draw log-uniform magnitudes in [1e-3, 1e3] per variable and,
    where the relation has a mixed comparison, a log-uniform rescaling factor
    in [1e-2, 1e2] per fundamental; pass iff the relation's truth value
    survives the rescaling. Each trial's draws are a pure function of
    (seed, trial), read off a counter-based stream (Salmon, Moraes, Dror and
    Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011) with no
    generator state: the 64-byte blake2b digest of f"{seed}:{trial}" read as
    eight big-endian 64-bit words w, each the draw lo + (hi - lo)*u for
    u = (w >> 11)*2**-53, the 53-bit uniform `random.random` builds, as
    `uniform` maps it; variables first and then factors, and past the
    eighth draw the digests of f"{seed}:{trial}:1", f"{seed}:{trial}:2",
    and so on. The relation is evaluated once, at the drawn point: a
    comparison of one dimension keeps its truth value, and a mixed one is
    decided again from its sides there (see the module docstring), so a
    relation with no mixed comparison passes every trial on which it is
    defined. Where an interval pass proves such a relation defined at every
    point a trial can draw, the report (every trial passed) is returned
    without drawing any or running the relation. Typing, compiling, checks
    and proof are done once per spec object, on its first call, and the
    trial kernel on the first call that draws trials (`FuzzPlan`); tol is
    the kernel's argument. trials and seed must be of type int (TypeError,
    for a bool too), and trials at least 1.
    A trial whose drawn point leaves the relation's domain (EvaluationError)
    is inapplicable; one on which a mixed comparison lies within rounding of
    its edge, before or after, is undecided. If no trial is decided,
    EvaluationError is raised, since none tested the relation.

    The first failing trial is shrunk (factor bisection toward 1, by the
    kernel's `shrink`, which works out what the factors do not move once
    and then decides each candidate at the trial's point) and
    confirmed through `rescale` and `evaluate` from the report's own
    bindings and factors; a trial that does not reproduce there is
    undecided too. A reported counterexample is meant to be definitive,
    but cancellation in a sum or a log can round past the bound a mixed
    comparison allows, and `rescale` and `evaluate` repeat that rounding, so
    a false one can get through: see the strict xfails in
    `tests/test_cli.py::TestKnownFalseCounterexamples`.
    """
    if type(trials) is not int or type(seed) is not int:  # a bool is an int subclass
        name, value = ("trials", trials) if type(trials) is not int else ("seed", seed)
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if trials < 1:
        raise ValueError("at least one trial required")
    check_tol(tol)
    plan = spec.fuzz_plan
    if plan.proven:
        return InvarianceReport(trials=trials, passed=trials, seed=seed, counterexample=None)

    # trial t's hash is that of f"{seed}:{t}", continued from its prefix's
    stream = blake2b(f"{seed}:".encode())
    run, _, shrink = plan.kernel(tol)
    passed = inapplicable = undecided = 0
    counterexample: Counterexample | None = None
    for trial in range(trials):
        h = stream.copy()
        h.update(b"%d" % trial)
        try:
            failed = run(h)
        except EvaluationError as exc:
            inapplicable += 1
            out_of_domain = exc
            continue
        except _Undecided:
            undecided += 1
            continue
        if failed is None:
            passed += 1
        elif counterexample is None:
            before, point, log_factors = failed
            shrunk = Rescaling(spec.system, tuple(_shrink(shrink, point, log_factors)))
            logs = dict(zip(spec.variable_names, point))
            counterexample = _confirmed(spec, trial, logs, shrunk, before, tol)
            undecided += counterexample is None
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
    return InvarianceReport(trials, passed, seed, counterexample, inapplicable, undecided)


def _confirmed(spec, trial, logs, shrunk, before, tol) -> Counterexample | None:
    """The counterexample, if `rescale` and `evaluate` reproduce it from its
    own bindings and factors; else None."""
    names, compiled = spec.variable_names, spec.fuzz_plan.compiled
    bindings = {n: Quantity(logs[n], d) for n, d in zip(names, spec.variable_dims)}
    try:
        rescaled = dict(zip(names, rescale(bindings.values(), shrunk)))
        reproduced = evaluate(compiled, bindings, tol), evaluate(compiled, rescaled, tol)
    except (EvaluationError, ValueError):  # ValueError: a rescaled log beyond the float range
        return None
    if reproduced != (before, not before):
        return None
    return Counterexample(
        trial_index=trial,
        log_bindings=logs,
        factors=dict(zip(spec.system.names, shrunk.factors)),
        before=before,
        after=not before,
    )


def _shrink(shrink, point, log_factors) -> list[float]:
    """The log factors a failing trial reports: each bisected toward 0
    while the violation persists, by the trial kernel's `shrink` at the
    trial's point (see `_trial_kernel`). A candidate that is undecided, or
    that needs a branch outside the relation's domain, does not violate."""
    return shrink(*point, *log_factors)


def report_to_dict(report: InvarianceReport) -> dict:
    """The report JSON shape: trials, passed, inapplicable and undecided
    (each only when nonzero), seed, counterexample | null.

    Counterexample magnitudes and factors are decimals with 15 significant
    digits; a binding magnitude beyond the float range is printed from its
    log (`format_magnitude`).
    """
    ce = report.counterexample
    counts = {k: v for k, v in (("inapplicable", report.inapplicable),
                                ("undecided", report.undecided)) if v}
    return {
        "trials": report.trials,
        "passed": report.passed,
        **counts,
        "seed": report.seed,
        "counterexample": None
        if ce is None
        else {
            "bindings": {k: format_magnitude(v) for k, v in ce.log_bindings.items()},
            "factors": {k: f"{v:.15g}" for k, v in ce.factors.items()},
            "before": ce.before,
            "after": ce.after,
        },
    }
