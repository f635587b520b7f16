"""`dsl.typecheck` against `reference_typecheck`, the walker over exact
`DimVector` arithmetic: equal results, sides and errors over random
relations from the whole grammar, and no Fraction arithmetic where every
exponent is an integer."""

import random
from fractions import Fraction

import pytest

from piforge import dsl
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
    parse_relation,
    typecheck,
)
from piforge.errors import DimensionError, ParseError, PiforgeError, SystemMismatchError

from support import FIXTURES, reference_typecheck

MLT = DimSystem(("M", "L", "T"))
HUGE = 10**310  # no float form
EXPONENTS = (
    Fraction(2), Fraction(-1), Fraction(3), Fraction(0), Fraction(1, 3), Fraction(-7, 2),
    Fraction(1, 2), Fraction(2, 3), Fraction(HUGE), Fraction(-HUGE, 7),
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


# parsed before any counting: parsing a dimension is DimVector arithmetic
FIXTURE_SPECS = [dsl.load_problem_spec(p) for p in sorted(FIXTURES.glob("*.json"))
                 if '"relation"' in p.read_text()]


class TestNoFractionArithmetic:
    """Every fixture dimension has integer exponents, so typing them adds,
    subtracts and multiplies plain ints; a rational power's integral result
    comes back an int without Fraction arithmetic too."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {}
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__"):
            original = getattr(Fraction, name)

            def counted(self, other, _original=original, _name=name):
                counter[_name] = counter.get(_name, 0) + 1
                return _original(self, other)

            monkeypatch.setattr(Fraction, name, counted)
        return counter

    def test_fixture_relations(self, calls):
        assert len(FIXTURE_SPECS) == 6
        for spec in FIXTURE_SPECS:
            for allow in (False, True):
                try:
                    typecheck(spec.relation, spec.env, allow_mixed_comparisons=allow, sides=[])
                except DimensionError:
                    assert not allow
        assert calls == {}

    def test_counter_is_wired(self, calls):
        # a rational dimension adds as Fractions, in the walk and the reference
        env = {"x": DimVector(MLT, (Fraction(1, 2), Fraction(0), Fraction(0)))}
        typecheck(parse_relation("x*x"), env)
        assert calls.get("__add__", 0) + calls.get("__radd__", 0) > 0
        calls.clear()
        reference_typecheck(parse_relation("m*m"), {"m": DimVector.unit(MLT, "M")})
        assert calls.get("__add__", 0) > 0
