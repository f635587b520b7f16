"""Surface syntax: dimension expressions, quantity literals, and relations.

Three small languages share one tokenizer:

  dimension   M*L^2*T^-2      products/quotients of fundamentals with exact
                              rational powers; "1" is dimensionless
  quantity    3.5 kg*m/s^2    positive decimal magnitude times a unit
                              expression resolved against a registry
  relation    F = m*a         typed predicate over dimensioned variables

Relations are parsed to an immutable AST, dimension-checked by `typecheck`
(add/sub/compare demand equal dimensions; exp/log/sin/cos and is_pos_int
demand dimensionless operands; pow takes a rational literal; sqrt halves any
dimension), and run by `evaluate`. The names `pi`, the six functions and
and/or/not are reserved: no spec variable may take them. Numeric literals
must be positive and within the float range.

`evaluate` compiles a relation once, on first use, into float closures kept
on the AST node; later calls run only float arithmetic, with no dimension
work. Multiplicative chains (variables, constants, *, /, ^, sqrt) stay in
log space; sums, exp/log/sin/cos work in linear space, where non-positive
values are legal, and only there. A comparison whose two sides are both in
log space compares their logs, so magnitudes beyond the float range compare
correctly; equality within relative tolerance tol becomes
|log a - log b| <= -log1p(-tol), the same rule as |a - b| <= tol*max(a, b).
A value that leaves the domain (a non-positive value in a product or under
log, or a linear value beyond the float range) raises EvaluationError.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .core import DEFAULT_TOL, DimSystem, DimVector, Quantity
from .errors import (
    DimensionError,
    EvaluationError,
    ParseError,
    SpecError,
    UnknownFundamentalError,
)

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "is_pos_int")
KEYWORDS = ("and", "or", "not")
# Names a relation reads as something other than a variable.
RESERVED = ("pi",) + FUNCTIONS + KEYWORDS


# --- AST ---------------------------------------------------------------


class _Compiled:
    """Every AST node keeps its compiled evaluator (see `evaluate`), built on
    first use."""

    @cached_property
    def _lowered(self):
        return _lower(self)


@dataclass(frozen=True)
class Var(_Compiled):
    name: str


@dataclass(frozen=True)
class Const(_Compiled):
    value: float
    symbol: str | None = None  # "pi" prints by name


@dataclass(frozen=True)
class BinOp(_Compiled):
    op: str  # + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow(_Compiled):
    base: "Node"
    exponent: Fraction


@dataclass(frozen=True)
class Call(_Compiled):
    func: str
    arg: "Node"


@dataclass(frozen=True)
class Compare(_Compiled):
    op: str  # = < <=
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class BoolOp(_Compiled):
    op: str  # and or
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Not(_Compiled):
    operand: "Node"


Node = Var | Const | BinOp | Pow | Call | Compare | BoolOp | Not


class BoolType:
    """Singleton type of predicates, distinct from every DimVector."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BoolType"


BOOL = BoolType()


# --- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|=|<|\^|\*|/|\+|-|\(|\)))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        pos = m.end()
        for kind in ("number", "name", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, m.start()))
                break
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text or 'end of input'!r} in {self.text!r}")
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "end"


def _parse_rational(ts: _TokenStream) -> Fraction:
    """Rational literal after '^': int, -int, or (int/int) with optional signs."""
    tok = ts.peek()
    if tok.text == "(":
        ts.next()
        num = _parse_signed_int(ts)
        if ts.peek().text == "/":
            ts.next()
            den = _parse_signed_int(ts)
            if den == 0:
                raise ParseError("zero denominator in exponent")
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        ts.expect(")")
        return value
    return Fraction(_parse_signed_int(ts))


def _parse_signed_int(ts: _TokenStream) -> int:
    sign = 1
    if ts.peek().text == "-":
        ts.next()
        sign = -1
    tok = ts.next()
    if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
        raise ParseError(f"expected an integer exponent, got {tok.text!r}")
    return sign * int(tok.text)


def _positive_literal(text: str, what: str) -> float:
    """A decimal literal as a positive float. Zero is rejected, and so is a
    nonzero literal that rounds to 0.0 or to inf."""
    value = float(text)
    if 0 < value < math.inf:
        return value
    if float(re.split("[eE]", text)[0]) == 0:
        raise ParseError(f"{what} must be positive, got {text}")
    raise ParseError(
        f"{what} must lie in the float range, about 5e-324 to 1.8e+308, got {text}"
    )


# --- dimension expressions ----------------------------------------------


def parse_system(names) -> DimSystem:
    """A dimension system from a list of fundamental names, as JSON gives it.

    A string is rejected rather than split into letters: "MLT" is not
    ["M", "L", "T"].
    """
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise ParseError(f"expected a list of fundamental names, got {names!r}")
    try:
        return DimSystem(tuple(names))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_dimension(text: str, system: DimSystem) -> DimVector:
    """Parse a dimension expression over the system's fundamentals."""

    def fundamental(name: str) -> DimVector:
        if name not in system.names:
            raise UnknownFundamentalError(
                f"unknown fundamental {name!r} (system: {', '.join(system.names)})"
            )
        return DimVector.unit(system, name)

    ts = _TokenStream(text)
    vec = _product(ts, "dimension", DimVector.zero(system), fundamental)
    if not ts.at_end():
        raise ParseError(f"trailing input {ts.peek().text!r} in dimension {text!r}")
    return vec


def _product(ts: _TokenStream, what: str, one, atom):
    """A product/quotient of powered terms, the grammar the dimension and
    unit languages share: atom(name) gives a name's value and one that of
    the numeric term 1; what ("dimension" or "unit") names the language in
    errors."""
    value, op = None, None
    while True:
        tok = ts.next()
        if tok.text == "(":
            term = _product(ts, what, one, atom)
            ts.expect(")")
        elif tok.kind == "number":
            if tok.text != "1":
                raise ParseError(f"the only numeric {what} term is 1, got {tok.text!r}")
            term = one
        elif tok.kind == "name":
            term = atom(tok.text)
        else:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r} in {what} expression")
        while ts.peek().text == "^":
            ts.next()
            term = term ** _parse_rational(ts)
        value = term if op is None else value * term if op == "*" else value / term
        if ts.peek().text not in ("*", "/"):
            return value
        op = ts.next().text


# --- quantity literals --------------------------------------------------


def parse_quantity(text: str, registry) -> Quantity:
    """Parse "<decimal> <unit expression>" against a registry.

    The registry only needs `system` and `quantity(name) -> Quantity`.
    Magnitudes must be strictly positive.
    """
    ts = _TokenStream(text)
    tok = ts.next()
    if tok.kind != "number":
        raise ParseError(f"a quantity literal starts with a decimal magnitude: {text!r}")
    magnitude = _positive_literal(tok.text, "quantity magnitudes")
    unit = _product(ts, "unit", Quantity.one(registry.system), registry.quantity)
    if not ts.at_end():
        raise ParseError(f"trailing input {ts.peek().text!r} in quantity {text!r}")
    return Quantity(math.log(magnitude) + unit.log_magnitude, unit.dim)


# --- relation expressions -----------------------------------------------


def parse_relation(text: str) -> Node:
    ts = _TokenStream(text)
    node = _or_expr(ts)
    if not ts.at_end():
        raise ParseError(f"trailing input {ts.peek().text!r} in relation {text!r}")
    return node


def _or_expr(ts: _TokenStream) -> Node:
    node = _and_expr(ts)
    while ts.peek().text == "or":
        ts.next()
        node = BoolOp("or", node, _and_expr(ts))
    return node


def _and_expr(ts: _TokenStream) -> Node:
    node = _not_expr(ts)
    while ts.peek().text == "and":
        ts.next()
        node = BoolOp("and", node, _not_expr(ts))
    return node


def _not_expr(ts: _TokenStream) -> Node:
    if ts.peek().text == "not":
        ts.next()
        return Not(_not_expr(ts))
    return _comparison(ts)


def _comparison(ts: _TokenStream) -> Node:
    left = _additive(ts)
    if ts.peek().text in ("=", "<", "<="):
        op = ts.next().text
        right = _additive(ts)
        return Compare(op, left, right)
    return left


def _additive(ts: _TokenStream) -> Node:
    node = _multiplicative(ts)
    while ts.peek().text in ("+", "-"):
        op = ts.next().text
        node = BinOp(op, node, _multiplicative(ts))
    return node


def _multiplicative(ts: _TokenStream) -> Node:
    node = _power(ts)
    while ts.peek().text in ("*", "/"):
        op = ts.next().text
        node = BinOp(op, node, _power(ts))
    return node


def _power(ts: _TokenStream) -> Node:
    node = _primary(ts)
    while ts.peek().text == "^":
        ts.next()
        node = Pow(node, _parse_rational(ts))
    return node


def _primary(ts: _TokenStream) -> Node:
    tok = ts.next()
    if tok.text == "(":
        node = _or_expr(ts)
        ts.expect(")")
        return node
    if tok.kind == "number":
        return Const(_positive_literal(tok.text, "constants"))
    if tok.kind == "name":
        if tok.text == "pi":
            return Const(math.pi, "pi")
        if ts.peek().text == "(":
            if tok.text not in FUNCTIONS:
                raise ParseError(
                    f"unknown function {tok.text!r} (have: {', '.join(FUNCTIONS)})"
                )
            ts.next()
            arg = _or_expr(ts)
            ts.expect(")")
            return Call(tok.text, arg)
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a keyword, not a variable")
        return Var(tok.text)
    raise ParseError(f"unexpected {tok.text or 'end of input'!r} in relation")


def free_variables(node: Node) -> set[str]:
    match node:
        case Var(name):
            return {name}
        case Const():
            return set()
        case BinOp(_, left, right) | Compare(_, left, right) | BoolOp(_, left, right):
            return free_variables(left) | free_variables(right)
        case Pow(base, _):
            return free_variables(base)
        case Call(_, arg):
            return free_variables(arg)
        case Not(operand):
            return free_variables(operand)
    raise TypeError(f"not a relation node: {node!r}")


# --- printer -------------------------------------------------------------

_PRECEDENCE = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5, "*": 6, "/": 6, "pow": 7}


def _prec(node: Node) -> int:
    match node:
        case BoolOp(op, _, _):
            return _PRECEDENCE[op]
        case Not(_):
            return _PRECEDENCE["not"]
        case Compare(_, _, _):
            return _PRECEDENCE["cmp"]
        case BinOp(op, _, _):
            return _PRECEDENCE[op]
        case Pow(_, _):
            return _PRECEDENCE["pow"]
    return 9


def _wrap(child: Node, parent_prec: int, right_side: bool = False) -> str:
    text = print_relation(child)
    child_prec = _prec(child)
    if child_prec < parent_prec or (right_side and child_prec == parent_prec):
        return f"({text})"
    return text


def print_relation(node: Node) -> str:
    """Render an AST back to source; parse(print(n)) == n."""
    match node:
        case Var(name):
            return name
        case Const(value, symbol):
            return symbol if symbol else repr(value)
        case BinOp(op, left, right):
            p = _PRECEDENCE[op]
            return f"{_wrap(left, p)} {op} {_wrap(right, p, right_side=True)}"
        case Pow(base, exponent):
            if exponent.denominator == 1 and exponent >= 0:
                etext = str(exponent)
            else:
                etext = f"({exponent})"
            return f"{_wrap(base, _PRECEDENCE['pow'], right_side=True)}^{etext}"
        case Call(func, arg):
            return f"{func}({print_relation(arg)})"
        case Compare(op, left, right):
            p = _PRECEDENCE["cmp"]
            return f"{_wrap(left, p)} {op} {_wrap(right, p, right_side=True)}"
        case BoolOp(op, left, right):
            p = _PRECEDENCE[op]
            return f"{_wrap(left, p)} {op} {_wrap(right, p, right_side=True)}"
        case Not(operand):
            return f"not {_wrap(operand, _PRECEDENCE['not'])}"
    raise TypeError(f"not a relation node: {node!r}")


# --- typecheck -----------------------------------------------------------


def typecheck(node: Node, env: dict[str, DimVector], *, allow_mixed_comparisons: bool = False):
    """Dimension-check a relation; returns its DimVector or BOOL.

    The verdict depends only on the environment's dimensions, never on
    magnitudes. With allow_mixed_comparisons the =/</<= operators accept
    operands of different dimensions (the invariance fuzzer's loophole);
    everything else stays strict.
    """
    system = next(iter(env.values())).system if env else None

    def check(n: Node):
        match n:
            case Var(name):
                if name not in env:
                    raise DimensionError(f"unbound variable {name!r}", node=n)
                return env[name]
            case Const():
                if system is None:
                    raise DimensionError("no dimension system in scope", node=n)
                return DimVector.zero(system)
            case BinOp(op, left, right):
                lt, rt = check(left), check(right)
                _need_dim(n, lt), _need_dim(n, rt)
                if op in ("+", "-"):
                    if lt != rt:
                        raise DimensionError(
                            f"'{op}' needs equal dimensions: {lt} vs {rt}",
                            node=n, left=lt, right=rt,
                        )
                    return lt
                return lt * rt if op == "*" else lt / rt
            case Pow(base, exponent):
                bt = _need_dim(n, check(base))
                return bt**exponent
            case Call(func, arg):
                at = _need_dim(n, check(arg))
                if func == "sqrt":
                    return at ** Fraction(1, 2)
                if not at.is_zero():
                    raise DimensionError(
                        f"{func} needs a dimensionless operand, got {at}",
                        node=n, left=at,
                    )
                return BOOL if func == "is_pos_int" else at
            case Compare(op, left, right):
                lt, rt = check(left), check(right)
                _need_dim(n, lt), _need_dim(n, rt)
                if lt != rt and not allow_mixed_comparisons:
                    raise DimensionError(
                        f"'{op}' compares different dimensions: {lt} vs {rt}",
                        node=n, left=lt, right=rt,
                    )
                return BOOL
            case BoolOp(op, left, right):
                for side in (left, right):
                    if check(side) is not BOOL:
                        raise DimensionError(f"'{op}' needs boolean operands", node=n)
                return BOOL
            case Not(operand):
                if check(operand) is not BOOL:
                    raise DimensionError("'not' needs a boolean operand", node=n)
                return BOOL
        raise TypeError(f"not a relation node: {n!r}")

    return check(node)


def _need_dim(node: Node, t):
    if t is BOOL:
        raise DimensionError("boolean value used where a quantity is required", node=node)
    return t


# --- evaluate ------------------------------------------------------------
#
# Each node lowers to (space, run), run(bindings, tol) giving its value in
# that space: a log magnitude, a plain float, or a truth value. The
# conversions between spaces are put in here, once per node.

_LOG, _LINEAR, _TRUTH = "log", "linear", "truth"
_LINEAR_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def _log_eq_bound(tol: float) -> float:
    """The log-space form of the relative equality test: for positive a and
    b, |a - b| <= tol*max(a, b) exactly when |log a - log b| <= this bound.
    From tol 1 on, the linear test holds for every positive pair."""
    return -math.log1p(-tol) if tol < 1 else math.inf


def _lower(node: Node):
    """(space, run) for a node: run(bindings, tol) gives its value in that space."""
    match node:
        case Var(name):
            return _LOG, lambda b, tol: b[name].log_magnitude
        case Const(value, _):
            log_value = math.log(value)
            return _LOG, lambda b, tol: log_value
        case BinOp(op, left, right):
            if op in ("*", "/"):
                lf, rf = _in_log(left), _in_log(right)
                if op == "*":
                    return _LOG, lambda b, tol: lf(b, tol) + rf(b, tol)
                return _LOG, lambda b, tol: lf(b, tol) - rf(b, tol)
            lf, rf = _in_linear(left), _in_linear(right)
            combine = operator.add if op == "+" else operator.sub

            def linear_sum(b, tol):
                v = combine(lf(b, tol), rf(b, tol))
                if math.isfinite(v):
                    return v
                raise OverflowError  # finite terms summed past the float range; `_run` reports it

            return _LINEAR, linear_sum
        case Pow(base, exponent):
            bf, e = _in_log(base), float(exponent)
            return _LOG, lambda b, tol: bf(b, tol) * e
        case Call("sqrt", arg):
            af = _in_log(arg)
            return _LOG, lambda b, tol: af(b, tol) * 0.5
        case Call("is_pos_int", arg):
            af = _in_linear(arg)

            def is_pos_int(b, tol):
                v = af(b, tol)
                nearest = round(v)
                return abs(v - nearest) <= tol and nearest >= 1

            return _TRUTH, is_pos_int
        case Call("log", arg):
            af = _in_linear(arg)

            def log(b, tol):
                v = af(b, tol)
                if v <= 0:
                    raise EvaluationError(f"log of non-positive value {v!r}")
                return math.log(v)

            return _LINEAR, log
        case Call(func, arg):
            af, f = _in_linear(arg), _LINEAR_FUNCTIONS[func]
            return _LINEAR, lambda b, tol: f(af(b, tol))
        case Compare(op, left, right):
            return _TRUTH, _lower_compare(op, left, right)
        case BoolOp(op, left, right):
            lf, rf = _in_truth(left), _in_truth(right)
            if op == "and":
                return _TRUTH, lambda b, tol: lf(b, tol) and rf(b, tol)
            return _TRUTH, lambda b, tol: lf(b, tol) or rf(b, tol)
        case Not(operand):
            of = _in_truth(operand)
            return _TRUTH, lambda b, tol: not of(b, tol)
    raise TypeError(f"not a relation node: {node!r}")


def _lower_compare(op: str, left: Node, right: Node):
    """Two positive sides compare in log space; otherwise both go linear."""
    if left._lowered[0] is _LOG and right._lowered[0] is _LOG:
        lf, rf = _in_log(left), _in_log(right)
        if op == "=":
            return lambda b, tol: abs(lf(b, tol) - rf(b, tol)) <= _log_eq_bound(tol)
    else:
        lf, rf = _in_linear(left), _in_linear(right)
        if op == "=":

            def equal(b, tol):
                x, y = lf(b, tol), rf(b, tol)
                return abs(x - y) <= tol * max(abs(x), abs(y))

            return equal
    if op == "<":
        return lambda b, tol: lf(b, tol) < rf(b, tol)
    return lambda b, tol: lf(b, tol) <= rf(b, tol)


def _in_log(node: Node):
    """run(bindings, tol) -> the node's value as a log magnitude."""
    space, run = node._lowered
    if space is _LOG:
        return run
    if space is _TRUTH:
        raise EvaluationError(f"boolean used as a quantity in {print_relation(node)}")

    def checked_log(b, tol):
        v = run(b, tol)
        if v > 0 and math.isfinite(v):
            return math.log(v)
        raise EvaluationError(
            f"non-positive value {v!r} in multiplicative context: {print_relation(node)}"
        )

    return checked_log


def _in_linear(node: Node):
    """run(bindings, tol) -> the node's value as a plain float."""
    space, run = node._lowered
    if space is _LINEAR:
        return run
    if space is _TRUTH:
        raise EvaluationError(f"boolean used as a quantity in {print_relation(node)}")
    return lambda b, tol: math.exp(run(b, tol))


def _in_truth(node: Node):
    space, run = node._lowered
    if space is not _TRUTH:
        raise EvaluationError(f"quantity used as a truth value in {print_relation(node)}")
    return run


def _run(run, bindings: dict[str, Quantity], tol: float):
    """run(bindings, tol), where a float overflow leaves the domain."""
    try:
        return run(bindings, tol)
    except OverflowError:
        raise EvaluationError("a value overflows the float range, about 1.8e+308") from None


def log_magnitude(node: Node, bindings: dict[str, Quantity]) -> float:
    """The log magnitude of a quantity-valued node, as `evaluate` gives it,
    without working out its dimension. No quantity-valued node holds a
    truth-valued one, so the tolerance is never read."""
    return _run(_in_log(node), bindings, DEFAULT_TOL)


def evaluate(node: Node, bindings: dict[str, Quantity], tol: float = DEFAULT_TOL):
    """Evaluate a typechecked relation against quantity bindings.

    Returns a bool for predicates, a Quantity otherwise. Equality compares
    with relative tolerance tol, |a - b| <= tol*max(|a|, |b|); where both
    sides are products of powers, it and < and <= compare their logs, so
    magnitudes beyond the float range compare correctly. is_pos_int accepts
    values within tol of a positive integer. A value outside the relation's
    domain (a non-positive value in a product or under log, or a linear
    value that overflows the float range) raises EvaluationError. The node
    keeps its compiled form for the next call.
    """
    space, run = node._lowered
    if space is _TRUTH:
        return _run(run, bindings, tol)
    log_mag = log_magnitude(node, bindings)
    return Quantity(log_mag, typecheck(node, {n: q.dim for n, q in bindings.items()}))


# --- problem specs --------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem-spec file: a relation over declared dimensioned variables."""

    system: DimSystem
    variable_names: tuple[str, ...]
    variable_dims: tuple[DimVector, ...]
    relation: Node
    relation_text: str

    @property
    def env(self) -> dict[str, DimVector]:
        return dict(zip(self.variable_names, self.variable_dims))


def load_problem_spec(path) -> ProblemSpec:
    """Load and parse a problem-spec JSON file.

    Schema: { "system": [names...], "variables": {name: dim-expr},
              "relation": text }; other keys are ignored.
    Raises SpecError for anything unreadable or malformed.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec {path} is not valid JSON: {exc}") from exc
    return problem_spec_from_dict(raw, source=str(path))


def problem_spec_from_dict(raw: dict, source: str = "<dict>") -> ProblemSpec:
    if not isinstance(raw, dict):
        raise SpecError(f"spec {source}: expected a JSON object")
    for key in ("system", "variables", "relation"):
        if key not in raw:
            raise SpecError(f"spec {source}: missing key {key!r}")
    try:
        system = parse_system(raw["system"])
    except ParseError as exc:
        raise SpecError(f"spec {source}: bad system: {exc}") from exc
    variables = raw["variables"]
    if not isinstance(variables, dict) or not variables:
        raise SpecError(f"spec {source}: 'variables' must be a nonempty object")
    names = tuple(variables.keys())
    reserved = [name for name in names if name in RESERVED]
    if reserved:
        raise SpecError(
            f"spec {source}: variable name {reserved[0]!r} is reserved "
            f"(reserved: {', '.join(RESERVED)})"
        )
    try:
        dims = tuple(parse_dimension(expr, system) for expr in variables.values())
        relation = parse_relation(raw["relation"])
    except ParseError as exc:
        raise SpecError(f"spec {source}: {exc}") from exc
    unbound = free_variables(relation) - set(names)
    if unbound:
        raise SpecError(f"spec {source}: relation uses undeclared variables {sorted(unbound)}")
    return ProblemSpec(
        system=system,
        variable_names=names,
        variable_dims=dims,
        relation=relation,
        relation_text=raw["relation"],
    )
