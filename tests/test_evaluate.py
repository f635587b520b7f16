"""The compiled evaluator against the tree-walking reference.

Relations come from the fixtures and from the relation shapes of the
benchmark's fuzz corpus (rewritten in support.py, not imported), plus a few that use
subtraction and logs of sums. Bindings are drawn as the fuzzer draws them and
then rescaled. Wherever the reference does not overflow, the verdicts must be
identical and every quantity-valued subexpression bit-identical.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest

from piforge import dsl
from piforge.core import DimSystem, DimVector, Quantity
from piforge.dsl import BinOp, BoolOp, Call, Compare, Not, Pow, evaluate, parse_relation
from piforge.errors import DimensionError, EvaluationError
from piforge.harness import Rescaling, rescale

from support import CORPUS_TEMPLATES, FIXTURES, corpus_dim, corpus_relation, reference_evaluate

LOG_MAG = (math.log(1e-3), math.log(1e3))
LOG_FACTOR = (math.log(1e-2), math.log(1e2))

# Outside the corpus: subtraction, logs of sums, exp, cos and sqrt, some of
# them undefined on part of the draws.
EXTRA = (
    "log(x1/x2 - 1) < 1",
    "(x1 - x2)*x1 < x2*x2",
    "sqrt(x1*x2) <= (x1 + x2)/2",
    "exp(x1/x2) + cos(x2/x1) = x1/x2 or is_pos_int(x1/x2 + 1)",
    "not x1 - x2 < x2 - x1",
)


def _relations():
    rng = random.Random(61)
    out = []
    for name in ("newton", "light_three_var", "electronics", "independent_dims",
                 "mass_spring", "hidden_constant"):
        spec = dsl.load_problem_spec(FIXTURES / f"{name}.json")
        out.append((spec.relation, spec.env))
    for template in CORPUS_TEMPLATES:
        for _ in range(6):
            text, env = corpus_relation(rng, template)
            out.append((parse_relation(text), env))
    for text in EXTRA:
        dim = corpus_dim(rng)
        out.append((parse_relation(text), {"x1": dim, "x2": dim}))
    return out


def _subexpressions(node):
    yield node
    match node:
        case BinOp(_, left, right) | Compare(_, left, right) | BoolOp(_, left, right):
            yield from _subexpressions(left)
            yield from _subexpressions(right)
        case Pow(base, _):
            yield from _subexpressions(base)
        case Call(_, arg):
            yield from _subexpressions(arg)
        case Not(operand):
            yield from _subexpressions(operand)


def _outcome(evaluator, node, bindings):
    """The value, EvaluationError, or None where the evaluator overflowed."""
    try:
        return evaluator(node, bindings)
    except EvaluationError:
        return EvaluationError
    except (OverflowError, ValueError):
        return None


def _same(new, ref):
    if isinstance(ref, Quantity):
        # bit for bit: == on the float log and exact == on the dimension
        return isinstance(new, Quantity) and new.log_magnitude == ref.log_magnitude and new.dim == ref.dim
    return new is ref


def test_compiled_matches_reference_on_drawn_and_rescaled_bindings():
    rng = random.Random(67)
    compared = verdicts = refused = 0
    for node, env in _relations():
        names = list(env)
        seeded = None
        if isinstance(node, Compare) and node.op == "=" and isinstance(node.left, dsl.Var):
            if node.left.name not in dsl.free_variables(node.right):
                seeded = node.left.name
        for _ in range(40):
            bindings = {n: Quantity(rng.uniform(*LOG_MAG), env[n]) for n in names}
            if seeded is not None:
                other = _outcome(reference_evaluate, node.right, bindings)
                if isinstance(other, Quantity):
                    bindings[seeded] = Quantity(other.log_magnitude, env[seeded])
            system = env[names[0]].system
            factors = Rescaling(system, tuple(rng.uniform(*LOG_FACTOR) for _ in system.names))
            rescaled = dict(zip(names, rescale([bindings[n] for n in names], factors)))
            for values in (bindings, rescaled):
                for sub in _subexpressions(node):
                    ref = _outcome(reference_evaluate, sub, values)
                    if ref is None:
                        continue
                    new = _outcome(evaluate, sub, values)
                    assert _same(new, ref), (dsl.print_relation(sub), new, ref)
                    compared += 1
                    verdicts += isinstance(ref, bool)
                    refused += ref is EvaluationError
    assert compared > 10_000
    assert verdicts > 2_000
    assert refused > 50


def test_equality_seeded_from_the_compiled_other_side_holds():
    rng = random.Random(71)
    for _ in range(20):
        text, env = corpus_relation(rng, "hidden_constant")
        node = parse_relation(text)
        bindings = {n: Quantity(rng.uniform(*LOG_MAG), d) for n, d in env.items()}
        seeded = evaluate(dsl.compile_relation(node.right, env), bindings).log_magnitude
        bindings["x3"] = Quantity(seeded, env["x3"])
        assert evaluate(node, bindings) is reference_evaluate(node, bindings) is True


class TestLogSpaceComparisons:
    L = DimSystem(("L",))

    def _q(self, log_magnitude, power=1):
        return Quantity(log_magnitude, DimVector(self.L, (Fraction(power),)))

    def test_equality_beyond_the_float_range(self):
        x = self._q(5.0)
        node = parse_relation("y = x^300")
        assert evaluate(node, {"x": x, "y": self._q(1500.0, 300)}) is True
        assert evaluate(node, {"x": x, "y": self._q(1500.1, 300)}) is False
        with pytest.raises(OverflowError):
            reference_evaluate(node, {"x": x, "y": self._q(1500.0, 300)})

    def test_nan_tol_is_refused(self):
        """A NaN tol would make log-space `=` hold for any two values."""
        node = parse_relation("x = y")
        bindings = {"x": self._q(0.0), "y": self._q(math.log(5.0))}
        assert evaluate(node, bindings) is False
        with pytest.raises(ValueError, match="tol must be a number"):
            evaluate(node, bindings, tol=math.nan)

    def test_negative_tol_is_refused(self):
        """A negative tol would make `=` false for a value and itself."""
        node = parse_relation("x = x")
        bindings = {"x": self._q(math.log(5.0))}
        assert evaluate(node, bindings, tol=0.0) is True
        with pytest.raises(ValueError, match="tol must be at least 0"):
            evaluate(node, bindings, tol=-1.0)

    def test_order_beyond_the_float_range(self):
        bindings = {"x": self._q(2.0)}
        assert evaluate(parse_relation("x^1000 < x^1001"), bindings) is True
        assert evaluate(parse_relation("x^(-1001) <= x^(-1000)"), bindings) is True
        assert evaluate(parse_relation("x^1000000 = x^1000000"), bindings) is True

    @pytest.mark.parametrize("text,expected", [
        ("x < x", False), ("x <= x", True), ("x*x < x^2", False), ("x*x <= x^2", True),
        ("x = x", True), ("not x^3 < x*x*x", True),
    ])
    def test_ties(self, text, expected):
        bindings = {"x": self._q(0.7)}
        node = parse_relation(text)
        assert evaluate(node, bindings) is reference_evaluate(node, bindings) is expected

    def test_a_sum_still_leaves_log_space(self):
        bindings = {"x": self._q(2.0)}
        with pytest.raises(EvaluationError, match="float range"):
            evaluate(parse_relation("x^1000 + x^1000 = x^1000"), bindings)

    @pytest.mark.parametrize("text", [
        "sin(x + x) < 2", "(x + x) - (x + x) < 1", "log(x + x) < 1",
    ])
    def test_a_sum_beyond_the_float_range_is_out_of_domain(self, text):
        # x is dimensionless, so that each relation is well-typed
        bindings = {"x": self._q(math.log(1.5e308), power=0)}
        with pytest.raises(EvaluationError, match="float range"):
            evaluate(parse_relation(text), bindings)

    @pytest.mark.parametrize("text", [
        f"x^{10**308}/x^{10**308} < 2*x/x", f"x^{10**308} = x^{10**308}", "x*x < x",
    ], ids=["power-ratio", "power-equality", "product"])
    def test_a_log_beyond_the_float_range_is_out_of_domain(self, text):
        # a log magnitude that rounds to inf: no nan from inf - inf reaches
        # the comparison
        bindings = {"x": self._q(1e308)}
        with pytest.raises(EvaluationError, match="float range"):
            evaluate(parse_relation(text), bindings)

    @pytest.mark.parametrize("tol", [1e-9, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12, 1.5, 2.5, 1e6])
    def test_equality_rule_matches_the_linear_rule(self, tol, ratio):
        # |la - lb| <= -log1p(-tol) is |a - b| <= tol*max(a, b); from tol 1
        # on, the linear rule holds for every positive pair
        bindings = {"a": self._q(0.0), "b": self._q(math.log(ratio))}
        node = parse_relation("a = b")
        expected = reference_evaluate(node, bindings, tol=tol)
        assert evaluate(node, bindings, tol=tol) is expected
        if tol >= 1:
            assert expected is True

    def test_mixed_sides_compare_linearly(self):
        # a log-space side against a sum: both go linear, as before
        bindings = {"a": self._q(0.0), "b": self._q(math.log(3.0))}
        node = parse_relation("a + a < b")
        assert evaluate(node, bindings) is reference_evaluate(node, bindings) is True


class TestCompiledForm:
    def test_lowered_once_per_compiled_relation(self, monkeypatch):
        length = DimVector.unit(DimSystem(("L",)), "L")
        node = parse_relation("x*x < x + x")
        bindings = {"x": Quantity(1.0, length)}
        original, roots = dsl._lower, []

        def lower(n, found=None):
            roots.extend([n] if n is node else [])
            return original(n, found)

        monkeypatch.setattr(dsl, "_lower", lower)
        # a node is compiled on each call, and nothing is kept between calls
        assert evaluate(node, bindings) is evaluate(node, bindings) is False
        assert len(roots) == 2
        # a compiled relation is lowered when it is made, and never again
        compiled = dsl.compile_relation(node, {"x": length})
        assert len(roots) == 3
        assert evaluate(compiled, bindings) is evaluate(compiled, bindings) is False
        assert compiled.truth({"x": 1.0}, 1e-9) is compiled.run({"x": 1.0}, 1e-9) is False
        assert compiled.space is dsl.TRUTH
        assert len(roots) == 3
        # a quantity's dimension is the compiled relation's type
        square = dsl.compile_relation(parse_relation("x*x"), {"x": length})
        assert evaluate(square, bindings) == evaluate(square.node, bindings) == Quantity(2.0, length**2)

    @pytest.mark.parametrize(
        "path", [p for p in sorted(FIXTURES.glob("*.json")) if "relation" in p.read_text()],
        ids=lambda p: p.stem,
    )
    def test_specs_pickle_after_evaluation(self, path):
        spec = dsl.load_problem_spec(path)
        before = (spec.relation, hash(spec.relation), hash(spec))
        evaluate(spec.fuzz_plan.compiled, {n: Quantity(0.0, d) for n, d in spec.env.items()})
        dsl.compile_relation(spec.relation, spec.env)
        assert (spec.relation, hash(spec.relation), hash(spec)) == before
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
        assert copy.relation == dsl.parse_relation(spec.relation_text)
        # the kept plan stays behind: its closures and BOOL do not pickle as themselves
        assert "fuzz_plan" in vars(spec) and "fuzz_plan" not in vars(copy)

    def test_compiled_relation_sides(self):
        system = DimSystem(("L", "T"))
        length, time = DimVector.unit(system, "L"), DimVector.unit(system, "T")
        node = parse_relation("x - y < z or is_pos_int(x/y) and not x*z <= z*x")
        compiled = dsl.compile_relation(node, {"x": length, "y": length, "z": time})
        assert compiled.type is dsl.BOOL
        first, third = node.left, node.right.right.operand
        assert [leaf[0] for leaf in compiled.leaves] == [first, node.right.left, third]
        assert compiled.leaves[1][2] is None
        (left_log, _, left_dim), (right_log, right_run, right_dim) = compiled.leaves[0][2]
        assert (left_log, left_dim, right_log, right_dim) == (False, length, True, time)
        assert [d for _, _, d in compiled.leaves[2][2]] == [length * time, time * length]
        assert right_run({"x": 0.0, "y": 1.0, "z": 2.5}, 1e-9) == 2.5
        logs = {"x": 0.5, "y": 0.0, "z": 1.0}
        bindings = {"x": Quantity(0.5, length), "y": Quantity(0.0, length), "z": Quantity(1.0, time)}
        assert compiled.truth(logs, 1e-9) is evaluate(node, bindings, 1e-9)
        assert dsl.compile_relation(parse_relation("x*x"), {"x": length}).truth is None

    def test_quantity_result_carries_its_exact_dimension(self):
        system = DimSystem(("M", "T"))
        m, t = DimVector.unit(system, "M"), DimVector.unit(system, "T")
        bindings = {"m": Quantity(0.2, m), "t": Quantity(-0.3, t)}
        result = evaluate(parse_relation("sqrt(m)*t^(-3/2)"), bindings)
        assert result.dim == m ** Fraction(1, 2) / t ** Fraction(3, 2)
        assert result.log_magnitude == 0.2 * 0.5 + -0.3 * -1.5

    def test_non_positive_value_in_a_product_is_an_evaluation_error(self):
        system = DimSystem(("L",))
        bindings = {"x": Quantity(0.0, DimVector.unit(system, "L")),
                    "y": Quantity(1.0, DimVector.unit(system, "L"))}
        with pytest.raises(EvaluationError, match="non-positive value"):
            evaluate(parse_relation("(x - y)*x < y*y"), bindings)
        with pytest.raises(EvaluationError, match="log of non-positive value"):
            evaluate(parse_relation("log(x/y - 1) < 1"), bindings)
        with pytest.raises(EvaluationError, match="non-positive value 0.0"):
            evaluate(parse_relation("(x - x)*x < y"), bindings)
        assert evaluate(parse_relation("x - y < x"), bindings) is True

    @pytest.mark.parametrize("text", ["sin(x) < 2", "x + t < x", "x < t and t", "(x < t) + x < x"])
    def test_an_ill_typed_node_is_a_dimension_error(self, text):
        # a bare node is typed against its bindings before it is lowered
        system = DimSystem(("L", "T"))
        bindings = {"x": Quantity(0.0, DimVector.unit(system, "L")),
                    "t": Quantity(0.0, DimVector.unit(system, "T"))}
        with pytest.raises(DimensionError):
            evaluate(parse_relation(text), bindings)

    def test_node_equality_ignores_the_compiled_form(self):
        a, b = parse_relation("x < 2*x"), parse_relation("x < 2*x")
        system = DimSystem(("L",))
        evaluate(a, {"x": Quantity(0.0, DimVector.unit(system, "L"))})
        assert a == b and hash(a) == hash(b)
        assert parse_relation(dsl.print_relation(a)) == b
