"""Outward interval enclosures of relation nodes (Moore, *Interval
Analysis*, 1966).

`enclose(node, box, tol)` works out, by interval arithmetic, what
`dsl.Lowering` makes of node for every point of box, a dict of each
variable's range of log magnitudes (name -> (lo, hi)). The result has one
shape:

- None: some point of the box may leave the domain, or node is no relation
  node (its class is not exactly one of `dsl.Node`'s eight), or a variable
  lies outside the box: anything unproven;
- (space, lo, hi), space one of `dsl.LOG`, `dsl.LINEAR` and `dsl.TRUTH`: a
  quantity whose value in its space (its log in LOG) lies in [lo, hi] at
  every point, or a truth value whose bounds are bools, so (TRUTH, b, b)
  where the box decides it as b and (TRUTH, False, True) where it does not.

Each kind converts its operands to the space `dsl.SPACES` gives it, and a
comparison converts its sides as `Lowering.native` does: both log where both
are, else both linear. Every bound is widened outward by `_MARGIN` of
itself, far above the one rounding (or libm error) an operation makes, so
the value a lowered relation computes in floats at a point of the box lies
in each of its nodes' enclosures. A log bound stays within ±700, so that
its conversion to linear space (exp) stays finite and nonzero, and a linear
bound within the float range; a bound beyond its limit, or NaN, leaves the
domain. `and`/`or` need both operands defined, whether or not the left one
decides. Definedness reads no tol; only a truth's bounds do.
"""

from __future__ import annotations

import math
import sys

from .dsl import (
    LINEAR,
    LOG,
    TRUTH,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Not,
    Pow,
    Var,
    log_eq_bound,
    node_spaces,
)

_LIMIT = {LOG: 700.0, LINEAR: sys.float_info.max}
_MARGIN = 2.0**-40


def _widen(space, lo, hi):
    """(space, lo, hi) widened outward; None beyond the space's limit."""
    lo, hi = lo - abs(lo) * _MARGIN, hi + abs(hi) * _MARGIN
    limit = _LIMIT[space]
    return (space, lo, hi) if -limit <= lo and hi <= limit else None


def _to(space, found):
    """An enclosure in space (LOG or LINEAR), converted as
    `dsl.Lowering.value` converts; None where found is None or a truth
    value, or may be non-positive where its log is taken."""
    if found is None or found[0] is TRUTH:
        return None
    if found[0] is space:
        return found
    _, lo, hi = found
    if space is LOG:
        return _widen(LOG, math.log(lo), math.log(hi)) if lo > 0 else None
    return _widen(LINEAR, math.exp(lo), math.exp(hi))


def _least(lo, hi):
    """The least |v| for v in [lo, hi]."""
    return lo if lo > 0 else -hi if hi < 0 else 0.0


def _truth(holds: bool, fails: bool):
    """A truth decided where holds or fails at every point, else undecided."""
    return TRUTH, holds, not fails


def _compare(op, a, b, tol):
    """The truth of `a op b` for enclosures a and b of its sides."""
    if a is None or b is None or a[0] is TRUTH or b[0] is TRUTH:
        return None
    space = LOG if a[0] is LOG and b[0] is LOG else LINEAR
    # a log side within ±700 goes linear without overflow, so neither is None
    (_, alo, ahi), (_, blo, bhi) = _to(space, a), _to(space, b)
    if op == "<":
        return _truth(ahi < blo, alo >= bhi)
    if op == "<=":
        return _truth(ahi <= blo, alo > bhi)
    gap = _widen(LINEAR, alo - bhi, ahi - blo)
    if gap is None:  # a gap beyond the float range
        return _truth(False, False)
    near, far = _least(*gap[1:]), max(-gap[1], gap[2])
    if space is LOG:  # '=' within log_eq_bound(tol), as the lowered source tests it
        bound = log_eq_bound(tol)
        return _truth(far <= bound, near > bound)
    # |a - b| <= tol*max(|a|, |b|), max(|a|, |b|) between these two, each
    # product moved past its own rounding
    least, most = max(_least(alo, ahi), _least(blo, bhi)), max(-alo, ahi, -blo, bhi)
    return _truth(far <= tol * least * (1 - _MARGIN), near > tol * most * (1 + _MARGIN))


def _is_pos_int(lo, hi, tol):
    """is_pos_int over [lo, hi], as the lowered source tests it: the nearest
    integer n is at least 1 and within tol. Decided where every point has
    one nearest integer, at least 1, and lies within tol of it, or none
    does, and false where every point's nearest integer is at most 0
    (`round` never decreases)."""
    n, m = round(lo), round(hi)
    if m < 1 or m != n:
        return _truth(False, m < 1)
    return _truth(max(n - lo, hi - n) <= tol, _least(lo - n, hi - n) > tol)


def enclose(node, box, tol):
    """The enclosure of node over box at tolerance tol (module docstring)."""
    kind = node.__class__
    if kind is Var:
        name = node.name
        return _widen(LOG, *box[name]) if name in box else None
    if kind is Const:
        log_value = math.log(node.value)
        return _widen(LOG, log_value, log_value)
    entry = node_spaces(node)
    if entry is None:
        return None
    operand, space = entry
    if kind is BinOp:
        a, b = _to(operand, enclose(node.left, box, tol)), _to(operand, enclose(node.right, box, tol))
        if a is None or b is None:
            return None
        if node.op in ("*", "+"):
            return _widen(space, a[1] + b[1], a[2] + b[2])
        return _widen(space, a[1] - b[2], a[2] - b[1])
    if kind is Pow:
        a, e = _to(operand, enclose(node.base, box, tol)), float(node.exponent)
        return a and _widen(space, *sorted((a[1] * e, a[2] * e)))
    if kind is Call:
        func, a = node.func, _to(operand, enclose(node.arg, box, tol))
        if a is None:
            return None
        _, lo, hi = a
        if func == "sqrt":
            return _widen(space, lo * 0.5, hi * 0.5)
        if func == "is_pos_int":
            return _is_pos_int(lo, hi, tol)
        if func == "log":
            return _widen(space, math.log(lo), math.log(hi)) if lo > 0 else None
        if func == "exp":
            return _to(LINEAR, _widen(LOG, lo, hi))
        return space, -1.0, 1.0  # sin, cos
    if kind is Compare:
        return _compare(node.op, enclose(node.left, box, tol), enclose(node.right, box, tol), tol)
    a = enclose(node.left if kind is BoolOp else node.operand, box, tol)
    if a is None or a[0] is not TRUTH:
        return None
    if kind is Not:
        return TRUTH, not a[2], not a[1]
    b = enclose(node.right, box, tol)
    if b is None or b[0] is not TRUTH:
        return None
    pick = min if node.op == "and" else max
    return TRUTH, pick(a[1], b[1]), pick(a[2], b[2])


def seedable(other) -> bool:
    """Whether an equality-seeded `v = other`, v nowhere else, is defined at
    every point of the box that other's enclosure covers: wherever other is,
    with v's linear form (exp of its log) finite. A log-space side is within
    the log limit already; a linear one seeds v with logs up to log of its
    upper bound, which must stay within it too. A seeded log with no lower
    bound (other near 0) only makes exp underflow toward 0, which raises
    nothing."""
    if other is None or other[0] is TRUTH:
        return False
    space, _, hi = other
    return space is LOG or hi <= 1.0 or _widen(LOG, 0.0, math.log(hi)) is not None
