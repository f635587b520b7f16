import json
import math
import pickle
import random
import typing
from fractions import Fraction

import pytest

from piforge import dsl, harness
from piforge.core import DimSystem, DimVector, Quantity
from piforge.dsl import (
    BOOL,
    BinOp,
    Call,
    Compare,
    Const,
    Pow,
    Var,
    evaluate,
    free_variables,
    parse_dimension,
    parse_quantity,
    parse_relation,
    print_relation,
    typecheck,
)
from piforge.errors import (
    DimensionError,
    ParseError,
    SpecError,
    UnknownFundamentalError,
    UnknownUnitError,
)
from piforge.harness import Rescaling, rescale
from piforge.units import UnitRegistry

from support import FIXTURES, mass_spring_dims, random_dims, random_quantities


@pytest.fixture
def mt():
    return DimSystem(("M", "T"))


class TestDimensionParsing:
    def test_product_with_negative_power(self, mt):
        vec = parse_dimension("M*T^-2", mt)
        assert vec.exponents == (Fraction(1), Fraction(-2))

    def test_fractional_power(self):
        system = DimSystem(("L",))
        assert parse_dimension("L^(1/2)", system).exponents == (Fraction(1, 2),)

    def test_one_is_dimensionless(self, mt):
        assert parse_dimension("1", mt).is_zero()

    def test_quotient_and_parens(self, mt):
        assert parse_dimension("M/(T*T)", mt) == parse_dimension("M*T^-2", mt)

    def test_unknown_fundamental(self, mt):
        with pytest.raises(UnknownFundamentalError):
            parse_dimension("L", mt)

    def test_garbage_rejected(self, mt):
        for bad in ("M*", "M^", "M^1.5", "2", "M$T", "(M", "M^(1/0)"):
            with pytest.raises(ParseError):
                parse_dimension(bad, mt)

    def test_exponent_beyond_the_float_range_stays_exact(self, mt):
        assert parse_dimension(f"M^{10**309}", mt).exponents == (Fraction(10**309), Fraction(0))

    def test_round_trip(self, mt):
        corpus = ["M*T^-2", "1", "M", "T^(1/2)", "M^3*T^(-5/2)"]
        for text in corpus:
            vec = parse_dimension(text, mt)
            assert parse_dimension(str(vec), mt) == vec


class TestQuantityParsing:
    def test_newton_literal(self, registry):
        q = parse_quantity("3 kg*m/s^2", registry)
        assert q.magnitude == pytest.approx(3.0, rel=1e-12)
        assert q.dim == parse_dimension("M*L*T^-2", registry.system)

    def test_coherent_base_unit(self, registry):
        q = parse_quantity("1 s", registry)
        assert q.log_magnitude == pytest.approx(0.0, abs=1e-15)

    def test_knot_literal(self, registry):
        q = parse_quantity("2.5 knot", registry)
        assert q.magnitude * 3600 / 0.01 == pytest.approx(2.5 * 185200, rel=1e-9)
        assert q.dim == parse_dimension("L*T^-1", registry.system)

    def test_dimensionless_unit_term(self, registry):
        q = parse_quantity("42 1", registry)
        assert q.dim.is_zero()
        assert q.magnitude == pytest.approx(42.0, rel=1e-12)

    def test_magnitude_beyond_the_float_range(self, registry):
        for text in ("1e400 kg", "1e-400 kg"):
            with pytest.raises(ParseError, match="float range"):
                parse_quantity(text, registry)

    @pytest.mark.parametrize("text", [f"2 cm^{10**309}", f"2 cm^{10**308}", f"2 cm^(-{10**308})"],
                             ids=["1e309", "1e308", "-1e308"])
    def test_exponent_beyond_the_float_range(self, registry, text):
        with pytest.raises(ParseError, match="float range"):
            parse_quantity(text, registry)

    def test_rejects_nonpositive_and_unknown(self, registry):
        with pytest.raises(ParseError):
            parse_quantity("0 kg", registry)
        with pytest.raises(ParseError):
            parse_quantity("-3 kg", registry)
        with pytest.raises(UnknownUnitError):
            parse_quantity("3 parsec", registry)


class TestRelationParsing:
    def test_precedence_shape(self):
        node = parse_relation("a + b * c^2 = d and not e < f or g <= h")
        assert node == dsl.BoolOp(
            "or",
            dsl.BoolOp(
                "and",
                Compare("=", BinOp("+", Var("a"), BinOp("*", Var("b"), Pow(Var("c"), Fraction(2)))), Var("d")),
                dsl.Not(Compare("<", Var("e"), Var("f"))),
            ),
            Compare("<=", Var("g"), Var("h")),
        )

    def test_pi_constant(self):
        node = parse_relation("x = 2*pi")
        assert node == Compare("=", Var("x"), BinOp("*", Const(2.0), Const(math.pi, "pi")))

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_relation("tan(x) = y")

    def test_keywords_are_not_variables(self):
        with pytest.raises(ParseError):
            parse_relation("and = x")

    @pytest.mark.parametrize("literal", ["1e400", "1e-400", "9" * 400])
    def test_constant_beyond_the_float_range(self, literal):
        with pytest.raises(ParseError, match="float range"):
            parse_relation(f"x < {literal}*x")

    @pytest.mark.parametrize("text", [f"x^{10**309} < y^{10**309}", f"x^(-{10**309}) < y", f"x^({10**309}/3) < y"],
                             ids=["1e309", "-1e309", "1e309/3"])
    def test_exponent_beyond_the_float_range(self, text):
        with pytest.raises(ParseError, match="float range"):
            parse_relation(text)

    @pytest.mark.parametrize("literal", ["0", "0.0", "0e400"])
    def test_zero_constant(self, literal):
        with pytest.raises(ParseError, match="must be positive"):
            parse_relation(f"x < {literal}*x")

    def test_small_constant_inside_the_float_range(self):
        assert parse_relation("x < 1e-320*x").right.left == Const(1e-320)

    def test_free_variables(self):
        node = parse_relation("is_pos_int(t/(2*pi) * (k/m)^(1/2))")
        assert free_variables(node) == {"t", "k", "m"}

    def test_round_trip_corpus(self):
        corpus = [
            "F = m*a",
            "is_pos_int(t/(2*pi) * (k/m)^(1/2))",
            "x = 299792458.0*t",
            "a + b < c or not d = e and f <= g",
            "sqrt(x)*y^(-3/2) = exp(z) or is_pos_int(w)",
            "x^2^3 = y",
            "(a + b)*c = d",
        ]
        for text in corpus:
            node = parse_relation(text)
            assert parse_relation(print_relation(node)) == node

    @pytest.mark.parametrize("text,expected", [
        ("a - b - c", BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c"))),
        ("a / b / c", BinOp("/", BinOp("/", Var("a"), Var("b")), Var("c"))),
        ("a or b or c", dsl.BoolOp("or", dsl.BoolOp("or", Var("a"), Var("b")), Var("c"))),
        ("a and b and c", dsl.BoolOp("and", dsl.BoolOp("and", Var("a"), Var("b")), Var("c"))),
    ])
    def test_chains_group_from_the_left(self, text, expected):
        assert parse_relation(text) == expected

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError, match="trailing input '<'"):
            parse_relation("a < b < c")

    @pytest.mark.parametrize("text", ["a - (b - c)", "a / (b * c)", "(a < b) < c", "a = (b = c)"])
    def test_operand_keeps_its_parentheses(self, text):
        # printing gives the text back, so the round trip holds too
        assert print_relation(parse_relation(text)) == text

    def test_generated_round_trip(self):
        rng = random.Random(47)
        for _ in range(500):
            node = _any_predicate(rng, ["a", "b", "c"], depth=rng.randint(0, 4))
            assert parse_relation(print_relation(node)) == node


def _nested(shape, levels):
    """A relation of the given shape whose nesting, as `parse_relation`
    counts it, is levels: the parser's open `_expr` calls or the nodes on a
    path from the root to a leaf, whichever is more."""
    if shape == "chain":  # a comparison over a chain of levels - 1 terms
        return " + ".join(["x"] * (levels - 1)) + " < t"
    if shape == "parentheses":  # levels - 1 pairs, each an `_expr` call
        return "(" * (levels - 1) + "x" + ")" * (levels - 1) + " < t"
    if shape == "not":  # the comparison's right operand is one more call
        return "not " * (levels - 2) + "x < t"
    if shape == "power":
        return "x" + "^1" * (levels - 2) + " < t"
    if shape == "call":  # a comparison, the calls, x/y and its operands
        return "sin(" * (levels - 3) + "x/y" + ")" * (levels - 3) + " < 1"
    raise ValueError(shape)


NESTED_SHAPES = ("chain", "parentheses", "not", "power", "call")


class TestNestingLimit:
    """A relation nests at most `dsl.MAX_NESTING` levels deep, counted
    without recursion, so that no walker of it, nor the parser, runs into
    Python's recursion limit; one level more is a ParseError naming it."""

    @pytest.mark.parametrize("shape", NESTED_SHAPES)
    def test_one_level_past_the_limit(self, shape):
        with pytest.raises(ParseError, match=f"^relation nests more than {dsl.MAX_NESTING} levels deep$"):
            parse_relation(_nested(shape, dsl.MAX_NESTING + 1))

    @pytest.mark.parametrize("text", [" + ".join(["x"] * 3000) + " < y", "(" * 400 + "x" + ")" * 400,
                                      "not " * 2000 + "x < y", "x" + "^2" * 2000],
                             ids=["3000 terms", "400 parentheses", "2000 nots", "2000 powers"])
    def test_far_past_the_limit(self, text):
        with pytest.raises(ParseError, match="^relation nests more than"):
            parse_relation(text)

    @pytest.mark.parametrize("shape", NESTED_SHAPES)
    def test_every_walker_at_the_limit(self, shape):
        node = parse_relation(_nested(shape, dsl.MAX_NESTING))
        env = _nested_env()
        again = parse_relation(print_relation(node))
        assert again == node and hash(again) == hash(node)
        assert pickle.loads(pickle.dumps(node)) == node
        assert repr(node).startswith(type(node).__name__)
        assert free_variables(node) <= set(env)
        assert typecheck(node, env, allow_mixed_comparisons=True) is BOOL
        box = dict.fromkeys(env, harness._LOG_MAG_RANGE)
        assert harness._bounds(node, box) in (True, None)
        compiled = dsl.compile_relation(node, env)
        assert compiled.run({"x": 0.5, "y": 0.25, "t": 1.0}, 1e-9) in (True, False)
        bindings = {n: Quantity(0.5, d) for n, d in env.items()}
        assert evaluate(node, bindings) in (True, False)

    def test_a_mixed_chain_at_the_limit_verifies(self):
        text = _nested("chain", dsl.MAX_NESTING)
        spec = dsl.problem_spec_from_dict(
            {"system": ["L", "T"], "variables": {"x": "L", "t": "T"}, "relation": text})
        report = harness.fuzz_invariance(spec, trials=50, seed=0)
        assert report.counterexample is not None


def _parenthesized(atom, levels):
    """atom nested levels deep, as the dimension and unit parser counts it:
    its open `_product` calls, one for the whole and one per parenthesis."""
    return "(" * (levels - 1) + atom + ")" * (levels - 1)


class TestDimensionAndUnitNesting:
    """A dimension or unit expression nests at most `dsl.MAX_NESTING` levels
    deep, wherever it is read: a spec variable's dimension, a registry
    unit's dimension, a bindings quantity literal. One level more is a
    ParseError naming the limit, never a RecursionError."""

    SYSTEM = ["L", "T"]

    def _spec_dimension(self, text):
        return dsl.problem_spec_from_dict(
            {"system": self.SYSTEM, "variables": {"x": text, "t": "T"}, "relation": "x < t"}
        ).variable_dims[0]

    def _registry_unit(self, text):
        return UnitRegistry.from_dict(
            {"system": self.SYSTEM, "units": {"m": {"magnitude": 1, "dim": text}}}
        ).quantity("m").dim

    def _bindings_literal(self, text):
        registry = UnitRegistry.load(FIXTURES / "registry.json")
        return parse_quantity(f"2 {text}", registry).dim

    @pytest.mark.parametrize("where", ["_spec_dimension", "_registry_unit", "_bindings_literal"])
    def test_the_limit_parses_and_one_more_level_does_not(self, where):
        read, atom = getattr(self, where), "m" if where == "_bindings_literal" else "L"
        assert read(_parenthesized(atom, dsl.MAX_NESTING)) == read(atom)
        what = "unit" if where == "_bindings_literal" else "dimension"
        message = f"{what} nests more than {dsl.MAX_NESTING} levels deep$"
        for levels in (dsl.MAX_NESTING + 1, 1000):
            with pytest.raises((ParseError, SpecError), match=message):
                read(_parenthesized(atom, levels))

    def test_levels_are_counted_per_open_parenthesis(self):
        system = DimSystem(("L", "T"))
        side_by_side = "*".join([_parenthesized("L", dsl.MAX_NESTING)] * 3)
        assert parse_dimension(side_by_side, system) == DimVector.unit(system, "L") ** 3
        with pytest.raises(ParseError, match="^dimension nests more than"):
            parse_dimension(f"T^2/({_parenthesized('L', dsl.MAX_NESTING)})", system)


def _nested_env():
    system = DimSystem(("L", "T"))
    length, time = DimVector.unit(system, "L"), DimVector.unit(system, "T")
    return {"x": length, "y": length, "t": time}


# The binary operators from loosest to tightest, one tuple a level. The test
# keeps its own copy, so it pins the grammar whatever table the parser reads.
LEVELS = [("or",), ("and",), ("=", "<", "<="), ("+", "-"), ("*", "/")]
LEVEL = {op: i for i, ops in enumerate(LEVELS) for op in ops}
BINARY = [op for ops in LEVELS for op in ops]
COMPARISONS = LEVELS[2]


def _node(op, left, right):
    node_type = dsl.BoolOp if op in ("or", "and") else Compare if op in COMPARISONS else BinOp
    return node_type(op, left, right)


class TestGrammar:
    """Precedence and grouping of every pair of binary operators, `not` and `^`."""

    @pytest.mark.parametrize("op1,op2", [(x, y) for x in BINARY for y in BINARY
                                         if not (x in COMPARISONS and y in COMPARISONS)])
    def test_pair_groups_by_precedence(self, op1, op2):
        text = f"a {op1} b {op2} c"
        a, b, c = Var("a"), Var("b"), Var("c")
        if LEVEL[op1] >= LEVEL[op2]:
            expected = _node(op2, _node(op1, a, b), c)
        else:
            expected = _node(op1, a, _node(op2, b, c))
        node = parse_relation(text)
        assert node == expected
        assert print_relation(node) == text

    @pytest.mark.parametrize("op1,op2", [(x, y) for x in COMPARISONS for y in COMPARISONS])
    def test_comparisons_in_a_row_are_trailing_input(self, op1, op2):
        with pytest.raises(ParseError, match=f"trailing input '{op2}'"):
            parse_relation(f"a {op1} b {op2} c")

    @pytest.mark.parametrize("op", BINARY)
    def test_not_against_each_operator(self, op):
        a, b = Var("a"), Var("b")
        if LEVEL[op] < LEVEL["="]:  # and, or bind more loosely than not
            assert parse_relation(f"not a {op} b") == _node(op, dsl.Not(a), b)
            assert parse_relation(f"a {op} not b") == _node(op, a, dsl.Not(b))
        else:
            assert parse_relation(f"not a {op} b") == dsl.Not(_node(op, a, b))
            with pytest.raises(ParseError, match="'not' is a keyword, not a variable"):
                parse_relation(f"a {op} not b")

    @pytest.mark.parametrize("text,message", [
        ("not a < b < c", "trailing input '<' in relation 'not a < b < c'"),
        ("not a = b <= c", "trailing input '<=' in relation 'not a = b <= c'"),
        ("a < b = c", "trailing input '=' in relation 'a < b = c'"),
        ("a or b < c < d", "trailing input '<' in relation 'a or b < c < d'"),
        ("a + not b", "'not' is a keyword, not a variable"),
        ("a = not b", "'not' is a keyword, not a variable"),
        ("-a < b", "unexpected '-' in relation"),
    ])
    def test_rejected_with_its_message(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_relation(text)
        assert str(info.value) == message

    def test_not_ends_at_a_looser_operator(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse_relation("not a < b and c") == dsl.BoolOp("and", dsl.Not(Compare("<", a, b)), c)
        assert parse_relation("not not a or b") == dsl.BoolOp("or", dsl.Not(dsl.Not(a)), b)

    def test_power_binds_tightest_and_groups_from_the_left(self):
        x = Var("x")
        assert parse_relation("x^2^3") == Pow(Pow(x, Fraction(2)), Fraction(3))
        assert parse_relation("a * x^2") == BinOp("*", Var("a"), Pow(x, Fraction(2)))
        assert print_relation(Pow(BinOp("*", Var("a"), x), Fraction(2))) == "(a * x)^2"


class TestChildren:
    """`children` gives exactly the fields that hold nodes, in field order,
    for each of the node classes; a new class or child field fails here
    until the walks that read it know it."""

    def test_each_node_class(self):
        x, y = Var("x"), Var("y")
        x_lt_y, y_lt_x = Compare("<", x, y), Compare("<", y, x)
        nodes = (x, Const(2.0), BinOp("*", x, y), Pow(x, Fraction(2)), Call("exp", x),
                 x_lt_y, dsl.BoolOp("and", x_lt_y, y_lt_x), dsl.Not(x_lt_y))
        assert {type(n) for n in nodes} == set(typing.get_args(dsl.Node))
        for node in nodes:
            fields = (getattr(node, name) for name in node.__match_args__)
            expected = tuple(v for v in fields if type(v) in typing.get_args(dsl.Node))
            assert dsl.children(node) == expected, node
            assert all(a is b for a, b in zip(dsl.children(node), expected))

    def test_an_instance_of_a_subclass_is_no_node(self):
        class SubVar(Var):
            pass

        node = SubVar("x")
        with pytest.raises(TypeError) as info:
            dsl.children(node)
        assert str(info.value) == f"not a relation node: {node!r}"


class TestTypecheck:
    def test_mass_spring_group_is_dimensionless(self):
        system, dims = mass_spring_dims()
        env = {"m": dims[0], "k": dims[1], "t": dims[2]}
        node = parse_relation("m^(-1/2) * k^(1/2) * t")
        assert typecheck(node, env).is_zero()

    def test_addition_mismatch(self):
        system = DimSystem(("M", "T"))
        env = {"m": DimVector.unit(system, "M"), "t": DimVector.unit(system, "T")}
        with pytest.raises(DimensionError) as info:
            typecheck(parse_relation("m + t"), env)
        assert info.value.left != info.value.right

    def test_mass_spring_predicate_is_boolean(self):
        system, dims = mass_spring_dims()
        env = {"m": dims[0], "k": dims[1], "t": dims[2]}
        node = parse_relation("is_pos_int(t/(2*pi) * (k/m)^(1/2))")
        assert typecheck(node, env) is BOOL

    def test_transcendentals_demand_dimensionless(self):
        system = DimSystem(("T",))
        env = {"t": DimVector.unit(system, "T")}
        with pytest.raises(DimensionError):
            typecheck(parse_relation("exp(t) = t/t"), env)
        assert typecheck(parse_relation("exp(t/t) = t/t"), env) is BOOL

    def test_sqrt_halves_any_dimension(self):
        system = DimSystem(("L",))
        env = {"x": DimVector.unit(system, "L")}
        result = typecheck(parse_relation("sqrt(x)"), env)
        assert result.exponents == (Fraction(1, 2),)

    def test_mixed_comparison_strict_vs_fuzz(self):
        system = DimSystem(("L", "T"))
        env = {"x": DimVector.unit(system, "L"), "t": DimVector.unit(system, "T")}
        node = parse_relation("x = 299792458*t")
        with pytest.raises(DimensionError):
            typecheck(node, env)
        assert typecheck(node, env, allow_mixed_comparisons=True) is BOOL

    def test_mixed_add_rejected_even_for_fuzzing(self):
        system = DimSystem(("L", "T"))
        env = {"x": DimVector.unit(system, "L"), "t": DimVector.unit(system, "T")}
        with pytest.raises(DimensionError):
            typecheck(parse_relation("x + t = x"), env, allow_mixed_comparisons=True)

    def test_boolean_operand_misuse(self):
        system = DimSystem(("L",))
        env = {"x": DimVector.unit(system, "L")}
        with pytest.raises(DimensionError):
            typecheck(parse_relation("(x = x) + x"), env)
        with pytest.raises(DimensionError):
            typecheck(parse_relation("x and x = x"), env)

    def test_verdict_ignores_magnitudes(self):
        # typecheck sees only the environment's dims; no magnitudes exist here.
        system, dims = mass_spring_dims()
        env = {"m": dims[0], "k": dims[1], "t": dims[2]}
        node = parse_relation("t^2*k/m")
        assert typecheck(node, env).is_zero()


class TestEvaluate:
    @pytest.fixture
    def spring_bindings(self):
        system, dims = mass_spring_dims()
        return {
            "m": Quantity.from_magnitude(1.0, dims[0]),
            "k": Quantity.from_magnitude(4 * math.pi**2, dims[1]),
            "t": Quantity.from_magnitude(1.0, dims[2]),
        }

    def test_mass_spring_true_at_full_period(self, spring_bindings):
        node = parse_relation("is_pos_int(t/(2*pi) * (k/m)^(1/2))")
        assert evaluate(node, spring_bindings) is True

    def test_mass_spring_false_between_periods(self, spring_bindings):
        node = parse_relation("is_pos_int(t/(2*pi) * (k/m)^(1/2))")
        bindings = dict(spring_bindings)
        bindings["t"] = Quantity.from_magnitude(1.5, bindings["t"].dim)
        assert evaluate(node, bindings) is False

    def test_self_ratio_is_dimensionless_one(self, spring_bindings):
        result = evaluate(parse_relation("m/m"), spring_bindings)
        assert isinstance(result, Quantity)
        assert result.dim.is_zero()
        assert result.magnitude == pytest.approx(1.0, rel=1e-15)

    def test_addition_in_linear_space(self, spring_bindings):
        result = evaluate(parse_relation("m + m + m"), spring_bindings)
        assert result.magnitude == pytest.approx(3.0, rel=1e-12)

    def test_subtraction_legal_inside_comparison(self, spring_bindings):
        # m - 2m is negative; only the comparison consumes it.
        assert evaluate(parse_relation("m - 2*m < m"), spring_bindings) is True

    def test_equality_uses_relative_tolerance(self):
        system = DimSystem(("L",))
        dim = DimVector.unit(system, "L")
        a = Quantity.from_magnitude(1e10, dim)
        b = Quantity.from_magnitude(1e10 * (1 + 1e-12), dim)
        env = {"a": a, "b": b}
        assert evaluate(parse_relation("a = b"), env) is True
        c = Quantity.from_magnitude(1e10 * (1 + 1e-6), dim)
        assert evaluate(parse_relation("a = b"), {"a": a, "b": c}) is False

    def test_progress_on_random_well_typed_expressions(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(300):
            system, dims = random_dims(rng, max_n=4, max_d=3, lo=-2, hi=2, min_n=2)
            names = [f"x{i}" for i in range(len(dims))]
            env = dict(zip(names, dims))
            node = _random_predicate(rng, names, depth=rng.randint(1, 5))
            try:
                result_type = typecheck(node, env)
            except DimensionError:
                continue
            if result_type is not BOOL:
                continue
            bindings = dict(zip(names, random_quantities(rng, dims, lo=0.5, hi=2.0)))
            assert evaluate(node, bindings) in (True, False)
            checked += 1
        assert checked >= 100

    def test_dimensionless_expressions_commute_with_rescaling(self):
        # the g(pi(...)) structure: dimensionless-closed values are invariant
        rng = random.Random(43)
        from piforge.pigroups import pi_basis

        count = 0
        for _ in range(200):
            system, dims = random_dims(rng, max_n=5, max_d=3, lo=-2, hi=2, min_n=2)
            basis = pi_basis(dims)
            if basis.r == 0:
                continue
            group = basis.groups[rng.randrange(basis.r)]
            names = [f"x{i}" for i in range(len(dims))]
            node = _monomial_node(names, group.exponents)
            bindings = dict(zip(names, random_quantities(rng, dims)))
            before = evaluate(node, bindings)
            factors = Rescaling(
                system, tuple(rng.uniform(math.log(1e-2), math.log(1e2)) for _ in system.names)
            )
            after_values = rescale([bindings[n] for n in names], factors)
            after = evaluate(node, dict(zip(names, after_values)))
            assert after.log_magnitude == pytest.approx(before.log_magnitude, abs=1e-9)
            count += 1
        assert count >= 50


def _monomial_node(names, coefficients):
    node = None
    for name, c in zip(names, coefficients):
        if c == 0:
            continue
        factor = Var(name) if c == 1 else Pow(Var(name), c)
        node = factor if node is None else BinOp("*", node, factor)
    return node if node is not None else Const(1.0)


def _random_predicate(rng, names, depth):
    if depth <= 1:
        kind = rng.randrange(3)
        left = _random_term(rng, names, 2)
        if kind == 0:
            return Compare(rng.choice(["=", "<", "<="]), left, _random_term(rng, names, 2))
        if kind == 1:
            return Compare("<", left, BinOp("*", left, Const(2.0)))
        ratio = BinOp("/", left, left)
        return Call("is_pos_int", ratio)
    kind = rng.randrange(3)
    if kind == 0:
        return dsl.Not(_random_predicate(rng, names, depth - 1))
    op = rng.choice(["and", "or"])
    return dsl.BoolOp(
        op,
        _random_predicate(rng, names, depth - 1),
        _random_predicate(rng, names, depth - 1),
    )


def _any_term(rng, names, depth):
    """Any operand node, mostly quantity-valued; types are not checked."""
    kind = rng.randrange(6) if depth > 0 else rng.randrange(2)
    if kind == 0:
        return Var(rng.choice(names))
    if kind == 1:
        return rng.choice([Const(0.5), Const(2.0), Const(1e-05), Const(3e20), Const(math.pi, "pi")])
    if kind == 2:
        op = rng.choice(["+", "-", "*", "/"])
        return BinOp(op, _any_term(rng, names, depth - 1), _any_term(rng, names, depth - 1))
    if kind == 3:
        return Pow(_any_term(rng, names, depth - 1), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    if kind == 4:
        return Call(rng.choice(["exp", "log", "sin", "cos", "sqrt"]), _any_term(rng, names, depth - 1))
    return _any_predicate(rng, names, depth - 1)


def _any_predicate(rng, names, depth):
    """Any truth-valued node, drawn over every node type."""
    kind = rng.randrange(4) if depth > 0 else 0
    if kind == 0:
        op = rng.choice(["=", "<", "<="])
        return Compare(op, _any_term(rng, names, depth - 1), _any_term(rng, names, depth - 1))
    if kind == 1:
        op = rng.choice(["and", "or"])
        return dsl.BoolOp(op, _any_predicate(rng, names, depth - 1), _any_predicate(rng, names, depth - 1))
    if kind == 2:
        return dsl.Not(_any_predicate(rng, names, depth - 1))
    return Call("is_pos_int", _any_term(rng, names, depth - 1))


def _random_term(rng, names, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.3:
            return Const(rng.choice([0.5, 1.0, 2.0, 3.5]))
        return Var(rng.choice(names))
    kind = rng.randrange(4)
    if kind == 0:
        return BinOp(rng.choice(["*", "/"]), _random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))
    if kind == 1:
        return Pow(_random_term(rng, names, depth - 1), Fraction(rng.randint(-2, 2)))
    if kind == 2:
        return Call("sqrt", _random_term(rng, names, depth - 1))
    left = _random_term(rng, names, depth - 1)
    return BinOp("+", left, left)


class TestProblemSpec:
    def test_load_mass_spring(self):
        spec = dsl.load_problem_spec(FIXTURES / "mass_spring.json")
        assert spec.variable_names == ("m", "k", "t")
        assert spec.system.names == ("M", "T")
        assert typecheck(spec.relation, spec.env) is BOOL

    def test_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": ["M"]}')
        with pytest.raises(SpecError):
            dsl.load_problem_spec(bad)

    def test_undeclared_variable(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": ["M"], "variables": {"m": "M"}, "relation": "m = q"}')
        with pytest.raises(SpecError):
            dsl.load_problem_spec(bad)

    def test_unreadable(self, tmp_path):
        with pytest.raises(SpecError):
            dsl.load_problem_spec(tmp_path / "nope.json")

    @pytest.mark.parametrize("name", dsl.RESERVED)
    def test_reserved_variable_names(self, tmp_path, name):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"system": ["L"], "variables": {name: "L", "y": "L"}, "relation": "y < y"}
        ))
        with pytest.raises(SpecError, match=f"variable name '{name}' is reserved"):
            dsl.load_problem_spec(bad)

    @pytest.mark.parametrize("variables,relation,message", [
        ({"x": 1}, "x = x", "the dimension of variable 'x' must be a string, got int"),
        ({"x": "L", "y": None}, "x = y", "the dimension of variable 'y' must be a string, got NoneType"),
        ({"x": "L"}, 5, "'relation' must be a string, got int"),
        ({"x": "L"}, ["x = x"], "'relation' must be a string, got list"),
    ], ids=["int-dimension", "null-dimension", "int-relation", "list-relation"])
    def test_non_string_fields_are_spec_errors(self, variables, relation, message):
        raw = {"system": ["L"], "variables": variables, "relation": relation}
        with pytest.raises(SpecError) as info:
            dsl.problem_spec_from_dict(raw, source="bad.json")
        assert str(info.value) == f"spec bad.json: {message}"

    @pytest.mark.parametrize("system", ['"MLT"', '["M", 1]', '[]'], ids=["string", "non-string-name", "empty"])
    def test_system_must_be_a_list_of_names(self, tmp_path, system):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"system": {system}, "variables": {{"m": "M"}}, "relation": "m = m"}}')
        with pytest.raises(SpecError, match="bad system"):
            dsl.load_problem_spec(bad)
