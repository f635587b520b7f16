"""`dsl.typecheck` against `reference_typecheck`, the walker over exact
`DimVector` arithmetic: equal results, sides and errors over random
relations from the whole grammar. Over the same relations,
`dsl.free_variables` and `harness._bounds` against their `match`-based
references; and the node contract they share: a node is an instance of
exactly one of the eight node classes."""

import random
from fractions import Fraction

import pytest

from piforge import dsl, harness
from piforge.core import DimSystem, DimVector
from piforge.dsl import (
    BOOL,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Not,
    Pow,
    Var,
    free_variables,
    parse_relation,
    typecheck,
)
from piforge.errors import DimensionError, ParseError, PiforgeError, SystemMismatchError

from support import (
    _reference_nodes,
    reference_bounds,
    reference_free_variables,
    reference_typecheck,
)

MLT = DimSystem(("M", "L", "T"))
HUGE = 10**310  # no float form
BIG = 10**300  # a power's exponent needs a float form
EXPONENTS = (
    Fraction(2), Fraction(-1), Fraction(3), Fraction(0), Fraction(1, 3), Fraction(-7, 2),
    Fraction(1, 2), Fraction(2, 3), Fraction(BIG), Fraction(-BIG, 7),
)
FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "is_pos_int")


def _dims(system, *rows):
    return [DimVector(system, tuple(Fraction(e) for e in row)) for row in rows]


# few distinct dimensions, so sums and comparisons are often well-typed;
# dimensionless ones, so functions often apply
MLT_DIMS = _dims(
    MLT, (0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, -1), (0, 1, -1), (1, 1, -2),
    (0, Fraction(1, 2), 0), (Fraction(-1, 3), 0, 2), (HUGE, 0, -1),
)
ENVS = {
    "mlt": lambda rng: {f"x{i}": rng.choice(MLT_DIMS) for i in range(4)},
    # the first variable's system types constants; y is over another system
    "two_systems": lambda rng: {
        "x0": rng.choice(MLT_DIMS[:4]), "x1": rng.choice(MLT_DIMS[:4]),
        "y": rng.choice(_dims(DimSystem(("T",)), (0,), (1,), (Fraction(1, 2),))),
    },
    # an equal system built apart combines with the first one
    "equal_systems": lambda rng: {
        "x0": rng.choice(MLT_DIMS), "x1": rng.choice(_dims(DimSystem(("M", "L", "T")), (1, 0, 0))),
    },
    "empty": lambda rng: {},
}


def random_quantity(rng, names, depth):
    roll = rng.random() if depth > 0 else rng.random() * 0.3
    if roll < 0.2:
        return Var(rng.choice(names + ["unbound"] if rng.random() < 0.03 else names))
    if roll < 0.3:
        return Const(2.5)
    if roll < 0.6:
        op = rng.choice("+-*/**")
        return BinOp(op, random_quantity(rng, names, depth - 1), random_quantity(rng, names, depth - 1))
    if roll < 0.75:
        return Pow(random_quantity(rng, names, depth - 1), rng.choice(EXPONENTS))
    if roll < 0.95:
        return Call(rng.choice(FUNCTIONS), random_quantity(rng, names, depth - 1))
    return random_truth(rng, names, depth - 1)  # a boolean where a quantity is needed


def random_truth(rng, names, depth):
    roll = rng.random() if depth > 0 else 0.0
    if roll < 0.5:
        return Compare(rng.choice(("=", "<", "<=")),
                       random_quantity(rng, names, depth - 1), random_quantity(rng, names, depth - 1))
    if roll < 0.7:
        return BoolOp(rng.choice(("and", "or")),
                      random_truth(rng, names, depth - 1), random_truth(rng, names, depth - 1))
    if roll < 0.8:
        return Not(random_truth(rng, names, depth - 1))
    if roll < 0.9:
        return Call("is_pos_int", random_quantity(rng, names, depth - 1))
    return random_quantity(rng, names, depth - 1)  # a quantity where a boolean is needed


def _outcome(check, node, env, allow):
    """(kind, result or error details, sides) of one typecheck, each value
    with its repr, so that an int exponent in place of a Fraction shows."""
    sides = []
    try:
        result = check(node, env, allow_mixed_comparisons=allow, sides=sides)
    except PiforgeError as exc:
        details = [type(exc), str(exc)]
        if isinstance(exc, DimensionError):
            details += [id(exc.node), exc.left, repr(exc.left), exc.right, repr(exc.right)]
        return "raised", details, sides, repr(sides)
    return "returned", [type(result), result, repr(result)], sides, repr(sides)


class TestAgainstReference:
    @pytest.mark.parametrize("env_kind", sorted(ENVS))
    @pytest.mark.parametrize("allow", [False, True], ids=["strict", "allowed"])
    def test_random_relations(self, env_kind, allow):
        rng = random.Random(f"typecheck:{env_kind}:{allow}")
        kinds = {}
        for _ in range(1500):
            env = ENVS[env_kind](rng)
            names = sorted(env) or ["x0"]
            node = (random_truth if rng.random() < 0.7 else random_quantity)(
                rng, names, rng.randint(1, 5))
            expected = _outcome(reference_typecheck, node, env, allow)
            assert _outcome(typecheck, node, env, allow) == expected, dsl.print_relation(node)
            kinds[expected[0], expected[1][0]] = kinds.get((expected[0], expected[1][0]), 0) + 1
        # the draws reach each outcome the walk can have
        assert kinds.get(("raised", DimensionError), 0) > 100, kinds
        if env_kind != "empty":  # where every variable is unbound
            assert kinds.get(("returned", type(BOOL)), 0) > 20, kinds
            assert kinds.get(("returned", DimVector), 0) > 20, kinds
        if env_kind == "two_systems":
            assert kinds.get(("raised", SystemMismatchError), 0) > 20, kinds

    @pytest.mark.parametrize("text", [
        "x^(1/3) = y", "x^(-7/2)*y^(7/2) < 1", "sqrt(x*x) = x", "sqrt(y) <= sqrt(y)",
        "(x/y)^(1/3)*(x/y)^(2/3) = x/y", "x^(1/2)^2 = x", "log(x/x) < sin(y/y)",
        "exp(x) = 1", "is_pos_int(x)", "is_pos_int(x/x) and x < y", "x < y or not x <= y",
        "(x < y) + 1 = 2", "x and y", "not x", "x < y < 1", "x + y", "x - x", "2*x/y",
        f"x^{HUGE} = y", f"x^{HUGE}*x^(-{HUGE}) = 1",
    ])
    @pytest.mark.parametrize("allow", [False, True], ids=["strict", "allowed"])
    def test_each_rule(self, text, allow):
        try:
            node = parse_relation(text)
        except ParseError:  # "x < y < 1": comparisons do not chain
            node = Compare("<", Compare("<", Var("x"), Var("y")), Const(1.0))
        for x, y in [((1, 0, 0), (1, 0, 0)), ((1, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 0)),
                     ((Fraction(1, 2), 0, 0), (0, 0, 3))]:
            env = dict(zip("xy", _dims(MLT, x, y)))
            assert _outcome(typecheck, node, env, allow) == _outcome(
                reference_typecheck, node, env, allow)


# what only direct construction builds: an op or function no rule knows,
# a child that is no node
UNKNOWN = {BinOp: "%", Compare: "!=", BoolOp: "xor", Call: "tan"}
NOT_NODES = (None, "x0", 1.0, Fraction(1), True, object())
NODE_CLASSES = (Var, Const, BinOp, Pow, Call, Compare, BoolOp, Not)


def spoiled(rng, node):
    """node rebuilt with, here and there, an unknown op or function, or a
    child that is no node."""
    fields = [spoiled(rng, v) if isinstance(v, NODE_CLASSES) else v
              for v in (getattr(node, f) for f in node.__match_args__)]
    roll, kind = rng.random(), type(node)
    if roll < 0.04 and kind in UNKNOWN:
        fields[0] = UNKNOWN[kind]
    elif roll < 0.07 and kind not in (Var, Const):
        children = [i for i, v in enumerate(fields) if isinstance(v, NODE_CLASSES)]
        fields[rng.choice(children)] = rng.choice(NOT_NODES)
    return kind(*fields)


def _called(walk, *args):
    """(kind, result with its type, or error type and message) of one walk."""
    try:
        result = walk(*args)
    except Exception as exc:  # every error the references raise compares
        return "raised", type(exc), str(exc)
    return "returned", type(result), result


def _random_relations(label, count):
    """(node, names) pairs from the generator above, a third of them spoiled."""
    rng = random.Random(f"walkers:{label}")
    for _ in range(count):
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        node = (random_truth if rng.random() < 0.7 else random_quantity)(
            rng, names, rng.randint(1, 5))
        yield (spoiled(rng, node) if rng.random() < 0.35 else node), names


class TestWalkersAgainstReference:
    """`free_variables`, `harness._bounds` and `harness._size` dispatch on
    the node's exact class; over relations from the whole grammar, spoiled
    ones and things that are no node, they agree with walkers that match
    class patterns or test `isinstance`."""

    def test_free_variables(self):
        kinds = {}
        for node, _ in _random_relations("free_variables", 4000):
            expected = _called(reference_free_variables, node)
            assert _called(free_variables, node) == expected, repr(node)
            kinds[expected[:2]] = kinds.get(expected[:2], 0) + 1
        assert kinds.get(("raised", TypeError), 0) > 100, kinds
        assert kinds.get(("returned", set), 0) > 1000, kinds

    def test_size(self):
        for node, _ in _random_relations("size", 2000):
            assert harness._size(node) == _reference_nodes(node), repr(node)

    @pytest.mark.parametrize("node", NOT_NODES, ids=lambda v: type(v).__name__)
    def test_what_is_no_node(self, node):
        assert _called(free_variables, node) == _called(reference_free_variables, node)
        assert _called(harness._bounds, node, {}) == _called(reference_bounds, node, {})

    def test_bounds(self):
        rng = random.Random("bounds:boxes")
        ranges = (harness._LOG_MAG_RANGE, harness._LOG_MAG_RANGE, (-1.0, 1.0), (-400.0, 300.0),
                  (0.5, 0.5), (-800.0, -690.0))
        kinds = {}
        for node, names in _random_relations("bounds", 6000):
            box = {n: rng.choice(ranges) for n in names if rng.random() < 0.9}
            expected = _called(reference_bounds, node, box)
            assert _called(harness._bounds, node, box) == expected, repr(node)
            kind = expected[:2] if expected[1] is not tuple else ("returned", expected[2][0])
            kinds[kind] = kinds.get(kind, 0) + 1
        # edges a random draw seldom lands on: a linear bound across 0 under
        # log, a bound past the log limit, a power that flips a bound
        for text in ("log(x0 - x0) < 1", "log(x0 + x0 - x0) < 1", "exp(x0/x0) < x0^(-1)",
                     "x0^700 < 1", "x0^(-3) < x0", "sqrt(x0) - x0 < 1"):
            for lo_hi in ranges:
                box = {"x0": lo_hi}
                node = parse_relation(text)
                assert _called(harness._bounds, node, box) == _called(reference_bounds, node, box)
        # each outcome: proven truth, log and linear bounds, unproven
        for kind in (("returned", bool), ("returned", True), ("returned", False),
                     ("returned", type(None))):
            assert kinds.get(kind, 0) > 50, kinds


class SubVar(Var):
    """An instance of a subclass of a node class, which is no relation node."""


class TestExactNodeClasses:
    """The walkers take exactly the eight classes of `dsl.Node`, though a
    `match` class pattern, as in the reference walkers, accepts an instance
    of a subclass."""

    def test_typecheck(self):
        node = Compare("<", SubVar("x"), Var("x"))
        env = {"x": DimVector.unit(MLT, "L")}
        assert reference_typecheck(node, env) is BOOL
        with pytest.raises(TypeError, match=r"^not a relation node: SubVar\(name='x'\)$"):
            typecheck(node, env)

    def test_free_variables(self):
        node = BinOp("+", Var("y"), SubVar("x"))
        assert reference_free_variables(node) == {"x", "y"}
        with pytest.raises(TypeError, match=r"^not a relation node: SubVar\(name='x'\)$"):
            free_variables(node)

    def test_print_relation(self):
        node = BinOp("+", Var("y"), SubVar("x"))
        with pytest.raises(TypeError, match=r"^not a relation node: SubVar\(name='x'\)$"):
            dsl.print_relation(node)


class TestTwoSystems:
    """An env whose variables span two systems: `*` and `/` refuse to
    combine them, `+` and a strict comparison find their dimensions unequal,
    and an allowed comparison keeps each side over its own system."""

    @pytest.fixture
    def env(self):
        return {"x": DimVector.unit(DimSystem(("L",)), "L"),
                "y": DimVector.unit(DimSystem(("T",)), "T")}

    @pytest.mark.parametrize("text", ["x*y", "x/y", "y*x < x", "x*y^(1/2)"])
    def test_products_raise(self, env, text):
        with pytest.raises(SystemMismatchError, match=r"cannot combine dimensions over \('[LT]',\)"):
            typecheck(parse_relation(text), env)

    def test_sum_is_unequal(self, env):
        with pytest.raises(DimensionError, match="^'[+]' needs equal dimensions: L vs T$") as info:
            typecheck(parse_relation("x + y"), env)
        assert (info.value.left, info.value.right) == (env["x"], env["y"])

    def test_comparison(self, env):
        with pytest.raises(DimensionError, match="^'<' compares different dimensions: L vs T$"):
            typecheck(parse_relation("x < y"), env)
        sides = []
        assert typecheck(parse_relation("x < y"), env, allow_mixed_comparisons=True,
                         sides=sides) is BOOL
        assert sides == [(env["x"], env["y"])]
        assert sides[0][1].system.names == ("T",)

    def test_each_system_combines_with_itself(self, env):
        t = env["y"].system
        assert typecheck(parse_relation("y*y/y^(1/2)"), env) == DimVector(t, (Fraction(3, 2),))
        assert typecheck(parse_relation("x*x*2"), env) == DimVector(env["x"].system, (Fraction(2),))
