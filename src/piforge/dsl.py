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
must be positive and within the float range. Relation operators bind,
loosest first: or, and, not, = < <= (which do not chain), + -, * /, ^, and
chains group from the left. `_BINARY` is the one place that precedence is
defined: the parser (`_expr`) and the printer (`_prec`) both read it. A
relation nests at most MAX_NESTING levels deep, as the parser's recursion
and as the tree it returns, the depth counted without recursion, so that no
walker of it runs into Python's recursion limit; a deeper one is a
ParseError, and so is a dimension or unit expression with more open
parentheses. A relation node is an instance of exactly one of the eight
classes of `Node`. Every walker of a relation dispatches on
`node.__class__ is ...` and reads fields as attributes (a `match` class
pattern costs several times as much per node, and would take an instance of
a subclass for a node): `children`, `typecheck`, the printer and `Lowering`
raise TypeError("not a relation node: ...") for anything else, such an
instance included, and `harness._bounds` calls it unproven. `children`
gives a node's operands, left to right, to the walks that treat every kind
alike (`free_variables`, the parser's depth count, `harness._size`); the
others do different work for each kind and keep their own dispatch.

`compile_relation` (`CompiledRelation`) types a relation once, whole, and
on its first run lowers it (`Lowering`) into straight-line Python source,
one statement per node over variable slots v0, v1, ... in the spec's
variable order, which `core.compile_source` compiles into a function of a
dict of each variable's log magnitude. A spec keeps the one its fuzzer
uses (`ProblemSpec.fuzz_plan`), and the fuzzer's trial kernel inlines the
same lowering (`harness._trial_kernel`). `evaluate` runs such a handle, or
compiles a bare node against its bindings' dimensions on each call; nothing
else lowers a node.
Multiplicative chains (variables, constants, *, /, ^, sqrt) stay in log
space; sums, exp/log/sin/cos work in linear space, where non-positive values
are legal, and only there. `SPACES` states, once, the space of each node
kind's operands and value: `Lowering` and `harness._bounds` both read it, so
a kind with no entry is neither lowered nor bounded. A comparison whose two
sides are both in log space compares their logs, so magnitudes beyond the
float range compare correctly; equality within relative tolerance tol becomes
|log a - log b| <= -log1p(-tol), the same rule as |a - b| <= tol*max(a, b).
A value that leaves the domain (a non-positive value in a product or under
log, or a value, linear or log, beyond the float range) raises
EvaluationError, from a statement of the source that checks for it.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .core import DEFAULT_TOL, DimSystem, DimVector, Quantity, check_tol, compile_source
from .errors import (
    DimensionError,
    EvaluationError,
    ParseError,
    SpecError,
    UnknownFundamentalError,
    frozen,
)

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "is_pos_int")
KEYWORDS = ("and", "or", "not")
# Names a relation reads as something other than a variable.
RESERVED = ("pi",) + FUNCTIONS + KEYWORDS


# --- AST ---------------------------------------------------------------


@frozen
class Var:
    name: str


@frozen
class Const:
    value: float
    symbol: str | None = None  # "pi" prints by name

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"constants must be finite and strictly positive, got {self.value!r}")


@frozen
class BinOp:
    op: str  # + - * /
    left: "Node"
    right: "Node"


@frozen
class Pow:
    base: "Node"
    exponent: Fraction

    def __post_init__(self):
        if not isinstance(self.exponent, (Fraction, int)):
            raise TypeError(f"expected an exact rational, got {type(self.exponent).__name__}")
        try:
            float(self.exponent)  # the evaluator runs on the float exponent
        except OverflowError:
            raise ValueError(
                f"exponent {self.exponent} lies beyond the float range, about 1.8e+308"
            ) from None


@frozen
class Call:
    func: str
    arg: "Node"


@frozen
class Compare:
    op: str  # = < <=
    left: "Node"
    right: "Node"


@frozen
class BoolOp:
    op: str  # and or
    left: "Node"
    right: "Node"


@frozen
class Not:
    operand: "Node"


Node = Var | Const | BinOp | Pow | Call | Compare | BoolOp | Not


class BoolType:
    """The type of predicates, distinct from every DimVector; `BOOL` is its
    one instance."""

    def __repr__(self):
        return "BoolType"


BOOL = BoolType()


# --- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|=|<|\^|\*|/|\+|-|\(|\)))"
)


@frozen
class _Token:
    kind: str  # number | name | op | end
    text: str


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
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup)))
    tokens.append(_Token("end", ""))
    return tokens


# How deeply a relation, dimension or unit expression may nest: as the
# parser's open `_expr` or `_product` calls, and for a relation also as the
# nodes on a path from the root to a leaf. The parser takes up to three
# frames a level; a walker of the tree up to two (`Lowering.native` through
# `Lowering.value`, `print_relation` through `_wrap`), `==` and pickling
# three, and a node's repr four. At this limit each stays under Python's
# default recursion limit of 1000 with room for its caller's frames. The
# lowered source is flat, whatever the depth: no statement nests in another.
MAX_NESTING = 200
_TOO_DEEP = f"{{}} nests more than {MAX_NESTING} levels deep"  # {} names the language


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # the parser's open `_expr` or `_product` calls

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text or 'end of input'!r} in {self.text!r}")

    def finish(self, what: str) -> None:  # what names the language
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r} in {what} {self.text!r}")


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
    ts.finish("dimension")
    return vec


def _product(ts: _TokenStream, what: str, one, atom):
    """A product/quotient of powered terms, the grammar the dimension and
    unit languages share: atom(name) gives a name's value and one that of
    the numeric term 1; what ("dimension" or "unit") names the language in
    errors."""
    ts.depth += 1
    if ts.depth > MAX_NESTING:
        raise ParseError(_TOO_DEEP.format(what))
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
            ts.depth -= 1
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
    try:
        unit = _product(ts, "unit", Quantity.one(registry.system), registry.quantity)
    except (OverflowError, ValueError):  # an exponent or a log magnitude past the float range
        raise ParseError(f"the unit of {text!r} leaves the float range, about 1.8e+308") from None
    ts.finish("quantity")
    return Quantity(math.log(magnitude) + unit.log_magnitude, unit.dim)


# --- relation expressions -----------------------------------------------


def parse_relation(text: str) -> Node:
    """The AST of a relation; ParseError where the text is not one, or where
    it nests more than MAX_NESTING levels deep."""
    ts = _TokenStream(text)
    node = _expr(ts)
    ts.finish("relation")
    # chains and powers grow the tree in a loop, not through the parser's
    # recursion: count its levels breadth first
    level, depth = [node], 0
    while level:
        depth += 1
        if depth > MAX_NESTING:
            raise ParseError(_TOO_DEEP.format("relation"))
        level = [child for n in level for child in children(n)]
    return node


# (precedence, node type) of each binary operator; `not` and `^` have levels too
_NOT, _CMP, _POW = 3, 4, 7
_BINARY = {
    "or": (1, BoolOp), "and": (2, BoolOp),
    "=": (_CMP, Compare), "<": (_CMP, Compare), "<=": (_CMP, Compare),
    "+": (5, BinOp), "-": (5, BinOp), "*": (6, BinOp), "/": (6, BinOp),
}


def _expr(ts: _TokenStream, min_prec: int = 1) -> Node:
    """A relation whose operators bind at least as tightly as min_prec, each
    chain grouped from the left (precedence climbing over `_BINARY`). After
    an operand built by `not` or by a comparison only looser operators may
    follow, so `a < b < c` and `not a < b < c` leave trailing input."""
    ts.depth += 1
    if ts.depth > MAX_NESTING:
        raise ParseError(_TOO_DEEP.format("relation"))
    if ts.peek().text == "not" and min_prec <= _NOT:
        ts.next()
        node, ceiling = Not(_expr(ts, _NOT)), _NOT
    else:
        node, ceiling = _power(ts), _POW
    while (op := ts.peek().text) in _BINARY:
        prec, node_type = _BINARY[op]
        if not min_prec <= prec < ceiling:
            break
        ts.next()
        node = node_type(op, node, _expr(ts, prec + 1))
        ceiling = _CMP if node_type is Compare else prec + 1
    ts.depth -= 1
    return node


def _power(ts: _TokenStream) -> Node:
    node = _primary(ts)
    while ts.peek().text == "^":
        ts.next()
        exponent = _parse_rational(ts)
        try:
            node = Pow(node, exponent)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return node


def _primary(ts: _TokenStream) -> Node:
    tok = ts.next()
    if tok.text == "(":
        node = _expr(ts)
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
            arg = _expr(ts)
            ts.expect(")")
            return Call(tok.text, arg)
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a keyword, not a variable")
        return Var(tok.text)
    raise ParseError(f"unexpected {tok.text or 'end of input'!r} in relation")


def children(node: Node) -> tuple:
    """A relation node's operand nodes, left to right; () for a variable or
    a constant. The walks that treat every kind alike read it."""
    kind = node.__class__
    if kind is BinOp or kind is Compare or kind is BoolOp:
        return node.left, node.right
    if kind is Var or kind is Const:
        return ()
    if kind is Pow:
        return (node.base,)
    if kind is Call:
        return (node.arg,)
    if kind is Not:
        return (node.operand,)
    raise TypeError(f"not a relation node: {node!r}")


def free_variables(node: Node) -> set[str]:
    if node.__class__ is Var:
        return {node.name}
    return set().union(*map(free_variables, children(node)))


# --- printer -------------------------------------------------------------

def _prec(node: Node) -> int:
    kind = node.__class__
    if kind is BinOp or kind is Compare or kind is BoolOp:
        return _BINARY[node.op][0]
    if kind is Not:
        return _NOT
    if kind is Pow:
        return _POW
    return _POW + 1


def _wrap(child: Node, parent_prec: int, right_side: bool = False) -> str:
    text = print_relation(child)
    child_prec = _prec(child)
    if child_prec < parent_prec or (right_side and child_prec == parent_prec):
        return f"({text})"
    return text


def print_relation(node: Node) -> str:
    """Render an AST back to source; parse(print(n)) == n."""
    kind = node.__class__
    if kind is Var:
        return node.name
    if kind is Const:
        return node.symbol if node.symbol else repr(node.value)
    if kind is BinOp or kind is Compare or kind is BoolOp:
        p = _prec(node)
        # comparisons do not chain, so a comparison operand is wrapped on either side
        left_text = _wrap(node.left, p, right_side=kind is Compare)
        return f"{left_text} {node.op} {_wrap(node.right, p, right_side=True)}"
    if kind is Pow:
        exponent = node.exponent
        etext = str(exponent) if exponent.denominator == 1 and exponent >= 0 else f"({exponent})"
        return f"{_wrap(node.base, _POW, right_side=True)}^{etext}"
    if kind is Call:
        return f"{node.func}({print_relation(node.arg)})"
    if kind is Not:
        return f"not {_wrap(node.operand, _NOT)}"
    raise TypeError(f"not a relation node: {node!r}")


# --- typecheck -----------------------------------------------------------


def typecheck(node: Node, env: dict[str, DimVector], *, allow_mixed_comparisons=False, sides=None):
    """Dimension-check a relation; returns its DimVector or BOOL.

    The verdict depends only on the environment's dimensions, never on
    magnitudes. With allow_mixed_comparisons the =/</<= operators accept
    operands of different dimensions (the invariance fuzzer's loophole);
    everything else stays strict. A list given as sides gets the two side
    dimensions of each comparison, left to right. Quantities are typed by
    exact DimVector arithmetic alone, a constant over the first variable's
    system: dimensions over two systems do not combine (SystemMismatchError)
    and compare unequal. The fuzzer types a spec once (`ProblemSpec.fuzz_plan`)."""
    system = next(iter(env.values())).system if env else None

    def fail(n: Node, text: str, *dims):  # text names each of dims by {}
        raise DimensionError(text.format(*dims), n, *dims)

    def check(n: Node):
        kind = n.__class__
        if kind is BinOp:
            op = n.op
            lt, rt = check(n.left), check(n.right)
            _need_dim(n, lt), _need_dim(n, rt)
            if op in ("+", "-"):
                if lt != rt:
                    fail(n, f"'{op}' needs equal dimensions: {{}} vs {{}}", lt, rt)
                return lt
            return lt * rt if op == "*" else lt / rt
        if kind is Var:
            name = n.name
            if name not in env:
                raise DimensionError(f"unbound variable {name!r}", node=n)
            return env[name]
        if kind is Const:
            if system is None:
                raise DimensionError("no dimension system in scope", node=n)
            return DimVector.zero(system)
        if kind is Pow:
            return _need_dim(n, check(n.base)) ** n.exponent
        if kind is Compare:
            lt, rt = check(n.left), check(n.right)
            _need_dim(n, lt), _need_dim(n, rt)
            if lt != rt and not allow_mixed_comparisons:
                fail(n, f"'{n.op}' compares different dimensions: {{}} vs {{}}", lt, rt)
            if sides is not None:
                sides.append((lt, rt))
            return BOOL
        if kind is Call:
            func = n.func
            at = _need_dim(n, check(n.arg))
            if func == "sqrt":
                return at ** Fraction(1, 2)
            if not at.is_zero():
                fail(n, f"{func} needs a dimensionless operand, got {{}}", at)
            return BOOL if func == "is_pos_int" else at
        if kind is BoolOp:
            for side in (n.left, n.right):
                if check(side) is not BOOL:
                    raise DimensionError(f"'{n.op}' needs boolean operands", node=n)
            return BOOL
        if kind is Not:
            if check(n.operand) is not BOOL:
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
# A typed node lowers to straight-line Python source (`Lowering`) whose
# statements give its value in its space: a log magnitude, a plain float, or
# a truth value, or raise EvaluationError where it leaves the domain.
# Conversions between spaces are statements there too.

LOG, LINEAR, TRUTH = "log", "linear", "truth"
_OVERFLOW = "a value overflows the float range, about 1.8e+308"

# (node class, op or function, None for a class with neither) -> (space of
# its operands, space of its value), for each node kind with operands; a
# variable or constant is a log magnitude. `Lowering` and `harness._bounds`
# both read it, so a kind with no entry is neither lowered nor bounded. A
# comparison's sides keep their own spaces (see `Lowering.native`).
SPACES = {
    (BinOp, "*"): (LOG, LOG),
    (BinOp, "/"): (LOG, LOG),
    (BinOp, "+"): (LINEAR, LINEAR),
    (BinOp, "-"): (LINEAR, LINEAR),
    (Pow, None): (LOG, LOG),
    (Call, "sqrt"): (LOG, LOG),
    (Call, "exp"): (LINEAR, LINEAR),
    (Call, "log"): (LINEAR, LINEAR),
    (Call, "sin"): (LINEAR, LINEAR),
    (Call, "cos"): (LINEAR, LINEAR),
    (Call, "is_pos_int"): (LINEAR, TRUTH),
    (Compare, "="): (None, TRUTH),
    (Compare, "<"): (None, TRUTH),
    (Compare, "<="): (None, TRUTH),
    (BoolOp, "and"): (TRUTH, TRUTH),
    (BoolOp, "or"): (TRUTH, TRUTH),
    (Not, None): (TRUTH, TRUTH),
}


def node_spaces(node: Node):
    """The SPACES entry of node's kind; None for a variable, a constant, or
    anything with no entry."""
    kind = node.__class__
    if kind is BinOp or kind is Compare or kind is BoolOp:
        return SPACES.get((kind, node.op))
    if kind is Call:
        return SPACES.get((kind, node.func))
    return SPACES.get((kind, None))


def _space(node: Node) -> str:
    """The space a node's value is lowered in: a log magnitude for a
    variable or a constant."""
    entry = node_spaces(node)
    return LOG if entry is None else entry[1]


def log_eq_bound(tol: float) -> float:
    """The log-space form of the relative equality test: for positive a and
    b, |a - b| <= tol*max(a, b) exactly when |log a - log b| <= this bound.
    From tol 1 on, the linear test holds for every positive pair."""
    return -math.log1p(-tol) if tol < 1 else math.inf


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise EvaluationError(_OVERFLOW) from None


def _non_positive(v: float, node: Node) -> EvaluationError:
    return EvaluationError(
        f"non-positive value {v!r} in multiplicative context: {print_relation(node)}"
    )


def _log_error(v: float) -> EvaluationError:
    return EvaluationError(f"log of non-positive value {v!r}")


# the globals every lowered source reads, by the names it reads them
_GLOBALS = {
    "Error": EvaluationError, "OVERFLOW": _OVERFLOW, "exp": _exp, "log": math.log,
    "sin": math.sin, "cos": math.cos, "eq_bound": log_eq_bound,
    "non_positive": _non_positive, "log_error": _log_error,
}


class Lowering:
    """Straight-line Python source for typed relation nodes: one statement
    per node, in the order evaluation takes them, each operand before its
    node and left before right. `Lowering(variables)` makes each variable
    its slot, v0, v1, ... in the order given (`slots`); a constant is its
    log as a float repr, and any other node a fresh local t0, t1, ...

    Each domain check is a statement that raises the EvaluationError the
    value would: `t - t` is 0.0 for a finite t and nan, which is true, for
    inf or nan. The right operand of `and`/`or` runs under a guard, a local
    that is true exactly where the left one does not decide, and each of its
    statements reads `if guard: ...`: no statement nests in another, however
    deeply the relation does. The source reads the names of `_GLOBALS`, the
    locals `tol` and those above, and globals it adds to `names`, so it
    holds no string from a spec."""

    def __init__(self, variables):
        self.slots = {name: f"v{i}" for i, name in enumerate(variables)}
        self.names = dict(_GLOBALS)
        self.lines: list[str] = []
        self.used: set[str] = set()  # the variables read
        self.guard: str | None = None  # None: every statement runs
        self.temps = 0

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def let(self, expression: str) -> str:
        """A fresh local set to expression, under the guard."""
        name = self.temp()
        self.lines.append(f"if {self.guard}: {name} = {expression}" if self.guard
                          else f"{name} = {expression}")
        return name

    def check(self, condition: str, error: str) -> None:
        """Raise error where condition holds, under the guard."""
        guard = f"{self.guard} and " if self.guard else ""
        self.lines.append(f"if {guard}{condition}: raise {error}")

    def branch(self, condition: str) -> str | None:
        """Put what follows under a new guard, true where the current one is
        and condition holds; returns the current one, to be restored."""
        outer, guard = self.guard, self.temp()
        self.lines.append(f"{guard} = {outer} and {condition}" if outer else f"{guard} = {condition}")
        self.guard = guard
        return outer

    def constant(self, value, prefix: str) -> str:
        """A new global name for value."""
        name = f"{prefix}{len(self.names)}"
        self.names[name] = value
        return name

    def value(self, node: Node, space: str) -> str:
        """The node's value in space, as a local, slot or literal."""
        node_space, v = self.native(node)
        if node_space is space:  # a truth value is only ever wanted as one: the node is typed
            return v
        if space is LINEAR:
            return self.let(f"exp({v})")
        self.check(f"not {v} > 0", f"non_positive({v}, {self.constant(node, 'q')})")
        return self.let(f"log({v})")

    def _finite(self, expression: str) -> str:
        t = self.let(expression)
        self.check(f"{t} - {t}", "Error(OVERFLOW)")
        return t

    def native(self, node: Node) -> tuple[str, str]:
        """(space, value): the node's value in its own space."""
        kind = node.__class__
        if kind is Var:
            self.used.add(node.name)
            return LOG, self.slots[node.name]
        if kind is Const:
            return LOG, repr(math.log(node.value))
        entry = node_spaces(node)
        if entry is None:
            raise TypeError(f"not a relation node: {node!r}")
        operand, space = entry
        if kind is BinOp:
            a, b = self.value(node.left, operand), self.value(node.right, operand)
            return space, self._finite(f"{a} {'+' if node.op in ('*', '+') else '-'} {b}")
        if kind is Pow:
            return space, self._finite(f"{self.value(node.base, operand)} * {float(node.exponent)!r}")
        if kind is Call:
            func, a = node.func, self.value(node.arg, operand)
            if func == "sqrt":
                return space, self.let(f"{a} * 0.5")
            if func == "is_pos_int":
                nearest = self.let(f"round({a})")
                return space, self.let(f"abs({a} - {nearest}) <= tol and {nearest} >= 1")
            if func == "log":
                self.check(f"{a} <= 0", f"log_error({a})")
            return space, self.let(f"{func}({a})")  # exp, log, sin, cos
        if kind is Compare:
            # two positive sides compare in log space; otherwise both go linear
            op, left, right = node.op, node.left, node.right
            if _space(left) is LOG and _space(right) is LOG:
                a, b = self.value(left, LOG), self.value(right, LOG)
                equal = f"abs({a} - {b}) <= eq_bound(tol)"
            else:
                a, b = self.value(left, LINEAR), self.value(right, LINEAR)
                equal = f"abs({a} - {b}) <= tol * max(abs({a}), abs({b}))"
            return space, self.let(equal if op == "=" else f"{a} {op} {b}")
        if kind is BoolOp:
            a = self.value(node.left, operand)
            outer = self.branch(f"not {a}" if node.op == "or" else a)
            b = self.value(node.right, operand)
            self.guard = outer
            return space, self.let(f"{a} {node.op} {b}")
        return space, self.let(f"not {self.value(node.operand, operand)}")  # Not


class CompiledRelation:
    """A relation typechecked once and compiled on first run, for many
    evaluations: the handle a caller keeps in place of re-typing and
    re-lowering the node. `type`, as `typecheck` with mixed comparisons
    gives it (DimensionError where the relation is ill-typed);
    `side_dims`, the two side dimensions of each comparison, left to right;
    `run`, run(logs, tol) giving its truth value, or a quantity's log
    magnitude, from a dict of each variable's log magnitude, compiled
    (`core.compile_source`) from `Lowering`'s source of the node."""

    def __init__(self, node: Node, env: dict[str, DimVector]):
        sides = []
        self.node = node
        self.type = typecheck(node, env, allow_mixed_comparisons=True, sides=sides)
        self.side_dims = tuple(sides)
        self._variables = tuple(env)

    @cached_property
    def run(self):
        lowering = Lowering(self._variables)
        result = lowering.value(self.node, TRUTH if self.type is BOOL else LOG)
        loads = [f" {slot} = logs[{lowering.constant(n, 'n')}]"
                 for n, slot in lowering.slots.items() if n in lowering.used]
        lines = ["def run(logs, tol):", *loads, *(f" {line}" for line in lowering.lines)]
        return compile_source("\n".join([*lines, f" return {result}"]), "run", **lowering.names)


compile_relation = CompiledRelation


def evaluate(relation, bindings: dict[str, Quantity], tol: float = DEFAULT_TOL):
    """Evaluate a `CompiledRelation`, or a node compiled on each call against
    the bindings' dimensions (DimensionError where it is ill-typed there).

    Returns a bool for predicates, a Quantity of the relation's `type`
    otherwise. Equality compares with relative tolerance tol, |a - b| <=
    tol*max(|a|, |b|); where both sides are products of powers, it and < and
    <= compare their logs, so magnitudes beyond the float range compare
    correctly. is_pos_int accepts values within tol of a positive integer. A
    value outside the relation's domain (a non-positive value in a product
    or under log, or a value, linear or log, that overflows the float range)
    raises EvaluationError.
    """
    check_tol(tol)
    if not isinstance(relation, CompiledRelation):
        relation = CompiledRelation(relation, {n: q.dim for n, q in bindings.items()})
    value = relation.run({name: q.log_magnitude for name, q in bindings.items()}, tol)
    return value if relation.type is BOOL else Quantity(value, relation.type)


# --- problem specs --------------------------------------------------------


def read_json(path, what: str, error):
    """The JSON value in the UTF-8 file at path (RFC 8259); error names the
    file as `what` ("spec", "registry", "bindings") where it is unreadable,
    not JSON in UTF-8, or repeats a key within one object, whose meaning
    RFC 8259 leaves open: no copy of the key silently wins."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{what} {path}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


@frozen
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

    @cached_property
    def fuzz_plan(self):
        """`harness.FuzzPlan(self)`, worked out on first use and kept with
        the spec; pickling drops it. Imported here: harness imports dsl."""
        from .harness import FuzzPlan

        return FuzzPlan(self)

    def __getstate__(self):
        # the fields alone: a kept plan's compiled functions do not pickle, nor BOOL as itself
        return {name: getattr(self, name) for name in self.__match_args__}


def load_problem_spec(path) -> ProblemSpec:
    """Load and parse a problem-spec JSON file.

    Schema: { "system": [names...], "variables": {name: dim-expr},
              "relation": text }; other keys are ignored.
    Raises SpecError for anything unreadable or malformed.
    """
    return problem_spec_from_dict(read_json(path, "spec", SpecError), source=str(path))


def system_of_object(raw, what: str, source: str, keys, error) -> DimSystem:
    """The parsed "system" of raw, a JSON object read as `what` ("spec",
    "registry") from source; error where raw is no object, lacks one of
    keys, or its system does not parse."""
    if not isinstance(raw, dict):
        raise error(f"{what} {source}: expected a JSON object")
    for key in keys:
        if key not in raw:
            raise error(f"{what} {source}: missing key {key!r}")
    try:
        return parse_system(raw["system"])
    except ParseError as exc:
        raise error(f"{what} {source}: bad system: {exc}") from exc


def problem_spec_from_dict(raw: dict, source: str = "<dict>") -> ProblemSpec:
    system = system_of_object(raw, "spec", source, ("system", "variables", "relation"), SpecError)
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
    text = raw["relation"]
    fields = [(f"the dimension of variable {name!r}", expr) for name, expr in variables.items()]
    for what, value in [*fields, ("'relation'", text)]:
        if not isinstance(value, str):
            raise SpecError(f"spec {source}: {what} must be a string, got {type(value).__name__}")
    try:
        dims = tuple(parse_dimension(expr, system) for expr in variables.values())
        relation = parse_relation(text)
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
        relation_text=text,
    )
