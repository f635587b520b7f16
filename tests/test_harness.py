import itertools
import json
import math
import pickle
import random
import re
import statistics
import sys
import threading
import typing
from collections import Counter
from fractions import Fraction
from hashlib import blake2b
from types import SimpleNamespace

import pytest

from piforge import core, dsl
from piforge.core import DimSystem, DimVector, Quantity
from piforge import harness
from piforge.enclose import enclose
from piforge.errors import DimensionMismatchError, EvaluationError, SpecError
from piforge.harness import (
    InvarianceReport,
    Rescaling,
    fuzz_invariance,
    report_to_dict,
    rescale,
)
from piforge.nondim import equivalent
from piforge.pigroups import pi_basis
from piforge.units import is_consistent

from support import (
    CORPUS_SYSTEM,
    CORPUS_TEMPLATES,
    FIXTURES,
    corpus_dim,
    corpus_relation,
    mass_spring_dims,
    oracle_equivalent,
    random_dims,
    random_quantities,
    random_rational_dims,
    reference_bounds,
    reference_fuzz,
    reference_log_combine,
    reference_shrink,
    run_cli,
    trial_draws,
    trial_uniform,
)


def _spec(name):
    return dsl.load_problem_spec(FIXTURES / f"{name}.json")


def _kernel_at(monkeypatch, spec, values, tol=1e-9):
    """(trial, decide, shrink): the spec's trial kernel, built over draw ranges
    [0, 2**45), where a word's draw is a multiple of 2**-8, and its trial fed
    a digest whose words draw the given values as they are: each variable's
    log magnitude, then each log factor, each such a multiple below 2**45."""
    units = [int(v * 2**8) for v in values]
    assert [u * 2**-8 for u in units] == values and all(0 <= u < 2**53 for u in units)
    block = b"".join((u << 11).to_bytes(8, "big") for u in units)
    with monkeypatch.context() as patched:
        patched.setattr(harness, "_LOG_MAG_RANGE", (0.0, 2.0**45))
        patched.setattr(harness, "_LOG_FACTOR_RANGE", (0.0, 2.0**45))
        # built apart from the plan's own kernel, which keeps the real ranges
        trial, decide, shrink = harness._trial_kernel(spec.fuzz_plan)(tol)
    return lambda: trial(SimpleNamespace(digest=lambda: block)), decide, shrink


class TestRescale:
    def test_identity_is_a_no_op(self):
        system, dims = mass_spring_dims()
        xs = [Quantity(1.5, d) for d in dims]
        assert rescale(xs, Rescaling.identity(system)) == xs

    def test_factor_two_on_time(self):
        system, dims = mass_spring_dims()
        t = Quantity.from_magnitude(3.0, dims[2])
        k = Quantity.from_magnitude(8.0, dims[1])
        r = Rescaling.from_factors(system, [1.0, 2.0])
        rescaled_t, = rescale([t], r)
        rescaled_k, = rescale([k], r)
        assert rescaled_t.magnitude == pytest.approx(6.0, rel=1e-12)
        # k has T^-2, so it picks up 2^-2
        assert rescaled_k.magnitude == pytest.approx(2.0, rel=1e-12)

    def test_dimensionless_quantities_unchanged(self):
        system = DimSystem(("M", "T"))
        x = Quantity(0.7, DimVector.zero(system))
        r = Rescaling.from_factors(system, [17.0, 0.03])
        assert rescale([x], r) == [x]

    def test_shift_summed_term_by_term(self):
        # float(e) * f added from 0.0 for each nonzero e in index order, bit for bit
        rng = random.Random(149)
        for _ in range(200):
            system, dims = random_rational_dims(rng, rng.randint(1, 6), rng.randint(1, 8))
            xs = random_quantities(rng, dims)
            r = Rescaling(system, tuple(rng.uniform(-5, 5) for _ in system.names))
            for x, y in zip(xs, rescale(xs, r)):
                shift = reference_log_combine(x.dim.exponents, r.log_factors)
                assert y.log_magnitude == x.log_magnitude + shift
                assert y.dim == x.dim

    def test_consistency_survives_rescaling(self, registry):
        rng = random.Random(127)
        units = [registry.quantity(n) for n in ("V", "A", "ohm", "s", "F")]
        for _ in range(50):
            factors = Rescaling(
                registry.system,
                tuple(rng.uniform(-3, 3) for _ in registry.system.names),
            )
            assert is_consistent(rescale(units, factors)).consistent


class TestFuzzInvariance:
    def test_newton_passes(self):
        report = fuzz_invariance(_spec("newton"), trials=500, seed=0)
        assert report.passed == report.trials == 500
        assert report.counterexample is None

    def test_hidden_constant_fails_fast(self):
        report = fuzz_invariance(_spec("hidden_constant"), trials=10, seed=0)
        ce = report.counterexample
        assert ce is not None
        assert ce.trial_index < 10
        assert ce.before != ce.after
        factor_l = ce.factors["L"]
        factor_t = ce.factors["T"]
        assert factor_l != factor_t

    def test_three_variable_light_formula_passes(self):
        report = fuzz_invariance(_spec("light_three_var"), trials=500, seed=0)
        assert report.passed == 500

    def test_deterministic_reports(self):
        a = fuzz_invariance(_spec("hidden_constant"), trials=50, seed=42)
        b = fuzz_invariance(_spec("hidden_constant"), trials=50, seed=42)
        assert a == b
        c = fuzz_invariance(_spec("hidden_constant"), trials=50, seed=43)
        assert c.counterexample != a.counterexample

    def test_trial_prefix_stability(self):
        # a run stops at its first counterexample, so a budget past it
        # changes nothing but `trials`: the trials drawn, their counts and
        # the counterexample are those of the shorter run
        short = fuzz_invariance(_spec("hidden_constant"), trials=5, seed=7)
        long = fuzz_invariance(_spec("hidden_constant"), trials=25, seed=7)
        assert _with_budget(long, 5) == short

    def test_ill_typed_spec_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"system": ["M", "T"], "variables": {"m": "M", "t": "T"}, "relation": "m + t = m"}'
        )
        with pytest.raises(SpecError):
            fuzz_invariance(dsl.load_problem_spec(bad), trials=1, seed=0)

    def test_non_boolean_relation_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": ["M"], "variables": {"m": "M"}, "relation": "m*m"}')
        with pytest.raises(SpecError):
            fuzz_invariance(dsl.load_problem_spec(bad), trials=1, seed=0)

    def test_nan_tol_rejected(self):
        # every `=` would be false on both sides, so hidden_constant would pass
        with pytest.raises(ValueError, match="tol must be a number"):
            fuzz_invariance(_spec("hidden_constant"), trials=10, seed=0, tol=math.nan)

    def test_invariant_composites_pass(self):
        # g(pi(...)) relations are dimensionally invariant by construction
        spec = _spec("mass_spring")
        report = fuzz_invariance(spec, trials=500, seed=3)
        assert report.passed == 500

    def test_shrunk_counterexample_still_violates(self):
        report = fuzz_invariance(_spec("hidden_constant"), trials=1, seed=0)
        ce = report.counterexample
        spec = _spec("hidden_constant")
        bindings = {
            name: Quantity.from_magnitude(v, dim)
            for (name, v), dim in zip(ce.bindings.items(), spec.variable_dims)
        }
        before = dsl.evaluate(spec.relation, bindings)
        factors = Rescaling.from_factors(
            spec.system, [ce.factors[n] for n in spec.system.names]
        )
        values = rescale([bindings[n] for n in spec.variable_names], factors)
        after = dsl.evaluate(spec.relation, dict(zip(spec.variable_names, values)))
        assert before == ce.before
        assert after == ce.after
        assert before != after

    def test_report_dict_shape(self):
        report = fuzz_invariance(_spec("newton"), trials=3, seed=0)
        payload = report_to_dict(report)
        assert payload == {"trials": 3, "passed": 3, "seed": 0, "counterexample": None}
        report = fuzz_invariance(_spec("hidden_constant"), trials=3, seed=0)
        payload = report_to_dict(report)
        assert set(payload) == {"trials", "passed", "seed", "counterexample"}
        assert set(payload["counterexample"]) == {"bindings", "factors", "before", "after"}


def _spec_text(tmp_path, variables, relation, system=("L",)):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"system": list(system), "variables": variables, "relation": relation}
    ))
    return dsl.load_problem_spec(path)


def _with_budget(report, trials):
    """The report with its budget `trials` in place of its own."""
    return harness.InvarianceReport(trials, report.passed, report.seed, report.counterexample,
                                    report.inapplicable, report.undecided)


def _trial_outcomes(spec, trials, seed, tol=core.DEFAULT_TOL):
    """How each of the first `trials` trials of seed comes out under the plan
    kernel's `trial`, run on its key's hash whether or not a run would draw
    it: counts of passed, failed, inapplicable and undecided."""
    trial, _, _ = spec.fuzz_plan.kernel(tol)
    outcomes = Counter()
    for t in range(trials):
        try:
            outcomes["passed" if trial(blake2b(f"{seed}:{t}".encode())) is None else "failed"] += 1
        except EvaluationError:
            outcomes["inapplicable"] += 1
        except harness._Undecided:
            outcomes["undecided"] += 1
    return outcomes


class TestInapplicableTrials:
    @pytest.mark.parametrize("relation", ["log(x/y - 1) < 1", "(x - y)*x < y*y"])
    def test_out_of_domain_trials_are_counted_not_raised(self, tmp_path, relation):
        spec = _spec_text(tmp_path, {"x": "L", "y": "L"}, relation)
        report = fuzz_invariance(spec, trials=200, seed=0)
        assert report.counterexample is None
        assert 0 < report.inapplicable < 200
        assert report.passed + report.inapplicable == 200
        assert report_to_dict(report)["inapplicable"] == report.inapplicable

    def test_every_trial_out_of_domain(self, tmp_path):
        spec = _spec_text(tmp_path, {"x": "L"}, "log(x/x - 1) < 1")
        with pytest.raises(EvaluationError, match="undefined on all 5 trials.*log of non-positive"):
            fuzz_invariance(spec, trials=5, seed=0)

    def test_shrink_skips_out_of_domain_candidates(self, tmp_path, monkeypatch):
        # x < y holds before and fails after; x < v holds at both, so the
        # trial never needs the log, which no point can reach. Halving L's
        # factor makes x < v fail after, and the log is needed: that
        # candidate does not violate, though it would with the log's branch
        # in domain and false
        shrunk = {}
        for branch in ("log(y/y - 1) < 1", "y < y"):
            spec = _spec_text(
                tmp_path, {"x": "T", "y": "1", "v": "L"}, f"x < y and (x < v or {branch})",
                system=("L", "T"),
            )
            trial, decide, shrink = _kernel_at(monkeypatch, spec, [0.0, 1.0, 1.0, 4.0, 3.5])
            before, point, factors = trial()
            assert (before, point, factors) == (True, (0.0, 1.0, 1.0), [4.0, 3.5])
            assert decide(*point, *factors) == (True, point, factors)  # false after
            shrunk[branch] = harness._shrink(shrink, point, factors)
        assert shrunk == {"log(y/y - 1) < 1": [1.0, 1.75], "y < y": [0.5**18, 1.75]}

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            InvarianceReport(trials=3, passed=2, seed=0, counterexample=None)
        assert InvarianceReport(trials=3, passed=2, seed=0, counterexample=None, inapplicable=1)
        ce = fuzz_invariance(_spec("hidden_constant"), trials=1, seed=0).counterexample
        with pytest.raises(ValueError):
            InvarianceReport(trials=3, passed=2, seed=0, counterexample=ce, inapplicable=1)
        assert InvarianceReport(trials=3, passed=1, seed=0, counterexample=ce, inapplicable=1)

    def test_zero_count_stays_out_of_the_report(self):
        payload = report_to_dict(fuzz_invariance(_spec("newton"), trials=3, seed=0))
        assert "inapplicable" not in payload


class TestBeyondTheFloatRange:
    def test_power_mismatch_yields_a_counterexample(self, tmp_path):
        spec = _spec_text(tmp_path, {"x": "L", "y": "L^299"}, "y = x^300")
        report = fuzz_invariance(spec, trials=20, seed=0)
        ce = report.counterexample
        assert ce is not None and ce.before is True and ce.after is False

    def test_huge_equal_powers_pass(self, tmp_path):
        spec = _spec_text(tmp_path, {"x": "L"}, "x^1000000 = x^1000000")
        report = fuzz_invariance(spec, trials=50, seed=0)
        assert report.passed == 50


def _oracle_specs():
    """(id, spec): the fixtures, each corpus shape twice, relations that
    leave their domain or the float range on some draws, and dimensions whose
    rescaling shift can leave the float range."""
    out = [(name, _spec(name)) for name in (
        "newton", "light_three_var", "electronics", "independent_dims", "mass_spring",
        "hidden_constant",
    )]
    rng = random.Random(151)
    for template in CORPUS_TEMPLATES:
        for i in range(2):
            text, env = corpus_relation(rng, template)
            out.append((f"{template}#{i}", dsl.ProblemSpec(
                CORPUS_SYSTEM, tuple(env), tuple(env.values()), dsl.parse_relation(text), text,
            )))
    system = DimSystem(("L",))
    length = DimVector.unit(system, "L")
    for text, dims in (
        ("log(x/y - 1) < 1", {"x": length, "y": length}),
        ("log(x/x - 1) < 1", {"x": length}),
        ("(x - y)*x < y*y", {"x": length, "y": length}),
        ("y = x^300", {"x": length, "y": length**299}),
        ("x^1000000 = x^1000000", {"x": length}),
    ):
        spec = dsl.ProblemSpec(system, tuple(dims), tuple(dims.values()), dsl.parse_relation(text), text)
        out.append((text, spec))
    # shifts that leave the float range: inf, and inf - inf
    huge = Fraction(10**308)
    system = DimSystem(("L", "T"))
    for label, exponents in (("shift-inf", (huge, Fraction(0))), ("shift-nan", (huge, -huge))):
        dims = (DimVector(system, exponents), DimVector.unit(system, "L"))
        out.append((label, dsl.ProblemSpec(system, ("x", "y"), dims, dsl.parse_relation("x < y"), "x < y")))
    return out


def _fingerprint(fuzz, spec, trials, seed, tol):
    """A report field by field, every float as float.hex; or what was raised."""
    try:
        report = fuzz(spec, trials, seed=seed, tol=tol)
    except (EvaluationError, SpecError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    ce = report.counterexample
    found = None if ce is None else (
        ce.trial_index,
        tuple((n, v.hex()) for n, v in ce.log_bindings.items()),
        tuple((n, v.hex()) for n, v in ce.factors.items()),
        ce.before,
        ce.after,
    )
    return (report.trials, report.passed, report.inapplicable, report.seed, found, report.undecided)


ORACLE_SPECS = _oracle_specs()


class TestAgainstQuantityReference:
    """The float trial loop against `reference_fuzz`, the same rule worked
    out on Quantity-level sides with exact Fraction gaps."""

    @pytest.mark.parametrize("spec", [s for _, s in ORACLE_SPECS], ids=[n for n, _ in ORACLE_SPECS])
    def test_reports_equal_float_for_float(self, spec):
        runs = [(1000, 0, 1e-9)] + [
            (trials, seed, tol)
            for trials in (1, 50) for seed in (1, 9, 42) for tol in (1e-9, 0.5)
        ]
        for trials, seed, tol in runs:
            expected = _fingerprint(reference_fuzz, spec, trials, seed, tol)
            assert _fingerprint(fuzz_invariance, spec, trials, seed, tol) == expected, (trials, seed, tol)

    def test_the_cases_reach_every_outcome(self):
        outcomes = set()
        for _, spec in ORACLE_SPECS:
            for trials in (1, 50):
                fp = _fingerprint(reference_fuzz, spec, trials, 9, 1e-9)
                if fp[0] == "raised":
                    outcomes.add(fp[1])
                    continue
                outcomes.add("counterexample" if fp[4] else "passed")
                if fp[2]:
                    outcomes.add("inapplicable")
        expected = {"passed", "counterexample", "inapplicable", EvaluationError}
        assert outcomes == expected, outcomes



class TestRescalingBeyondTheFloatRange:
    """A trial is no longer rescaled: a mixed comparison's log gap moves by
    w·μ, worked out exactly where a float would overflow, so a rescaling that
    would carry a log magnitude past the float range still decides."""

    def test_overflowing_trials_are_inapplicable(self, tmp_path):
        spec = _spec_text(tmp_path, {"x": f"L^{10**308}", "y": "L"}, "x < y")
        report = fuzz_invariance(spec, trials=1000, seed=0)
        assert (report.passed, report.inapplicable) == (5, 0)
        # x < y compares a length with L^(1e308): a real counterexample, and
        # the run draws no trial past it
        assert report.counterexample.trial_index == 5
        # over all 1000 trials, no overflowing rescaling makes one inapplicable
        assert _trial_outcomes(spec, 1000, seed=0) == {"passed": 487, "failed": 513}

    def test_every_trial_overflowing_names_the_cause(self, tmp_path):
        spec = _spec_text(tmp_path, {"x": f"L^{10**308}", "y": "L"}, "x < y")
        report = fuzz_invariance(spec, trials=1, seed=1)
        assert (report.passed, report.inapplicable, report.undecided) == (0, 0, 0)
        assert report.counterexample.trial_index == 0


# x of dimension L, y of L^2*T^-3: each side pair ties, and rounds apart by an ulp
_TIES = (
    "x*y/y < x", "x < x*y/y", "x/y*y < x", "x + x*y/y <= 2*x", "x*y/y <= x",
    "(x*y)/y < x or x < (x*y)/y", "x*y/y = x",
)


def _mixed_specs():
    """(id, spec) with comparisons of two dimensions: sides that are zero or
    negative, boolean structure around them, and a dimension difference w
    with no float form."""
    system = DimSystem(("L", "T"))
    length, time = DimVector.unit(system, "L"), DimVector.unit(system, "T")
    huge = Fraction(10**308)
    cases = (
        ("x - y < z", {"x": length, "y": length, "z": time}),
        ("z < x - y", {"x": length, "y": length, "z": time}),
        ("x - y <= z - w", {"x": length, "y": length, "z": time, "w": time}),
        ("x - y = z", {"x": length, "y": length, "z": time}),
        ("x - x < z", {"x": length, "z": time}),
        ("x - x = z - z", {"x": length, "z": time}),
        ("x - y = z - w", {"x": length, "y": length, "z": time, "w": time}),
        ("sin(x/y) < z/w", {"x": length, "y": length, "z": time, "w": length}),
        ("x < z and not y <= w or x < y", {"x": length, "y": length, "z": time, "w": length}),
        ("x < y", {"x": DimVector(system, (huge, 0)), "y": DimVector(system, (-huge, 0))}),
        ("x < y", {"x": DimVector(system, (huge, huge)), "y": DimVector(system, (-huge, 0))}),
        ("x = y", {"x": DimVector(system, (huge, 0)), "y": DimVector(system, (-huge, 0))}),
    )
    out = []
    for i, (text, dims) in enumerate(cases):
        spec = dsl.ProblemSpec(system, tuple(dims), tuple(dims.values()), dsl.parse_relation(text), text)
        out.append((f"{text} #{i}", spec))
    return out


MIXED_SPECS = _mixed_specs()


class TestMixedComparisons:
    """One evaluation per trial: a comparison of one dimension keeps its
    truth value, and only a mixed one is decided again, from the signs of
    its sides and its exact log gap."""

    @pytest.mark.parametrize("relation", _TIES)
    @pytest.mark.parametrize("seed", [0, 1, 9, 42])
    def test_ties_of_one_dimension_pass(self, tmp_path, relation, seed):
        spec = _spec_text(tmp_path, {"x": "L", "y": "L^2*T^-3"}, relation, system=("L", "T"))
        report = fuzz_invariance(spec, trials=1000, seed=seed)
        assert (report.passed, report.counterexample) == (1000, None)

    @pytest.mark.parametrize("seed", [0, 1, 9, 42])
    def test_huge_equal_dimensions_pass(self, tmp_path, seed):
        spec = _spec_text(tmp_path, {"x": f"L^{10**306}", "y": f"L^{10**306}"}, "x < y")
        report = fuzz_invariance(spec, trials=1000, seed=seed)
        assert (report.passed, report.counterexample) == (1000, None)

    def test_tie_shaped_sides_never_fail(self):
        # e*y/y against e, and a + e*y/y against a + e, for each side e of
        # each corpus shape, y of a random dimension and a of e's
        rng = random.Random(163)
        tried = 0
        for template in CORPUS_TEMPLATES:
            for _ in range(3):
                text, env = corpus_relation(rng, template)
                node = dsl.parse_relation(text)
                compares = [n for n in (node, getattr(node, "left", None)) if isinstance(n, dsl.Compare)]
                for e in (side for c in compares for side in (c.left, c.right)):
                    env2 = {**env, "y": corpus_dim(rng), "a": dsl.typecheck(e, env)}
                    tied = dsl.BinOp("/", dsl.BinOp("*", e, dsl.Var("y")), dsl.Var("y"))
                    a = dsl.Var("a")
                    for op in ("<", "<=", "="):
                        for left, right in ((tied, e), (e, tied),
                                            (dsl.BinOp("+", a, tied), dsl.BinOp("+", a, e))):
                            relation = dsl.Compare(op, left, right)
                            spec = dsl.ProblemSpec(CORPUS_SYSTEM, tuple(env2), tuple(env2.values()),
                                                   relation, dsl.print_relation(relation))
                            try:
                                report = fuzz_invariance(spec, trials=60, seed=tried)
                            except EvaluationError:
                                continue
                            assert report.counterexample is None, spec.relation_text
                            tried += 1
        assert tried > 300

    @pytest.mark.parametrize("template", ["hidden_constant", "mixed_lt"])
    def test_non_invariant_corpus_shapes_still_fail(self, template):
        rng = random.Random(167)
        for i in range(10):
            text, env = corpus_relation(rng, template)
            spec = dsl.ProblemSpec(CORPUS_SYSTEM, tuple(env), tuple(env.values()),
                                   dsl.parse_relation(text), text)
            assert fuzz_invariance(spec, trials=100, seed=i).counterexample is not None, text
        assert fuzz_invariance(_spec("hidden_constant"), trials=100, seed=0).counterexample

    @pytest.mark.parametrize("spec", [s for _, s in MIXED_SPECS], ids=[n for n, _ in MIXED_SPECS])
    def test_signs_and_exact_gaps_against_the_reference(self, spec):
        outcomes = set()
        for tol in (0.0, 1e-9, 0.5, 1.0, 1.5, 2.0, math.inf):
            for seed in (1, 9):
                expected = _fingerprint(reference_fuzz, spec, 200, seed, tol)
                assert _fingerprint(fuzz_invariance, spec, 200, seed, tol) == expected, (seed, tol)
                outcomes.add("raised" if expected[0] == "raised" else bool(expected[4]))
        assert outcomes & {True, False}

    def test_no_float_form_of_w_decides_exactly(self, tmp_path):
        # w = 2e308 for L has no float form: the gap is worked out in Fractions
        spec = _spec_text(tmp_path, {"x": f"L^{10**308}", "y": f"L^-{10**308}"}, "x < y")
        report = fuzz_invariance(spec, trials=200, seed=0)
        ce = report.counterexample
        assert report.undecided == 0 and ce is not None
        # x < y holds before: a growing L makes x, of L^1e308, the larger
        assert (ce.factors["L"] > 1) == ce.before

    def test_a_finite_spread_within_the_float_bound_is_undecided(self, tmp_path, monkeypatch):
        # x < y, bound 6 ulp: at these logs the gap, 3/32, equals the bound
        # times the spread 1 + |x| + |y| as floats round them, and exceeds it
        # in exact arithmetic. The floats leave the gap open, and a finite
        # spread then makes it undecided, never decided again in Fractions
        spec = _spec_text(tmp_path, {"x": "L", "y": "T"}, "x < y", system=("L", "T"))
        x, y = 2.0**45 - 117/256, 2.0**45 - 141/256
        m = harness._Mixed(spec.relation, *spec.fuzz_plan.compiled.side_dims[0])
        assert x - y == 3/32 == m.bound * (1.0 + abs(x) + abs(y))
        assert Fraction(x) - Fraction(y) > Fraction(m.bound) * (1 + Fraction(x) + Fraction(y))
        trial, _, _ = _kernel_at(monkeypatch, spec, [x, y, 0.0, 0.0])
        with pytest.raises(harness._Undecided):
            trial()
        # one step further from the edge, the floats decide it: x < y is false
        trial, _, _ = _kernel_at(monkeypatch, spec, [x + 1/256, y, 0.0, 0.0])
        assert trial() is None

    def test_shrink_skips_an_undecided_candidate(self, tmp_path, monkeypatch):
        # gap -1 + μ: μ = 4 violates, μ = 2 too, and μ = 1 puts the gap on the edge
        spec = _spec_text(tmp_path, {"x": "L", "y": "1"}, "x < y")
        trial, _, shrink = _kernel_at(monkeypatch, spec, [0.0, 1.0, 4.0])
        before, point, factors = trial()
        assert (before, point, factors) == (True, (0.0, 1.0), [4.0])
        assert harness._shrink(shrink, point, factors) == [2.0]

    def test_undecided_trials_are_counted(self, tmp_path):
        # x is seeded to y - z wherever that is positive: the gap is then 0,
        # on the edge of an exact '='; elsewhere the signs differ
        spec = _spec_text(tmp_path, {"x": "T", "y": "L", "z": "L"}, "x = y - z", system=("L", "T"))
        report = fuzz_invariance(spec, trials=200, seed=0, tol=0.0)
        assert report.counterexample is None
        assert 0 < report.undecided < 200
        assert report.passed + report.undecided == 200
        assert report_to_dict(report)["undecided"] == report.undecided
        assert "undecided" not in report_to_dict(fuzz_invariance(_spec("newton"), trials=3, seed=0))

    def test_no_trial_decided_is_an_error(self):
        # hidden_constant's x is seeded to c*t: with tol 0 every gap sits on the edge
        with pytest.raises(EvaluationError, match="decided on none of 20 trials.*20 undecided"):
            fuzz_invariance(_spec("hidden_constant"), trials=20, seed=0, tol=0.0)

    def test_a_counterexample_that_does_not_reproduce_is_undecided(self, tmp_path, monkeypatch):
        spec = _spec_text(tmp_path, {"x": "L", "y": "T"}, "x < y", system=("L", "T"))
        monkeypatch.setattr(harness, "evaluate", lambda *args, **kwargs: True)
        report = fuzz_invariance(spec, trials=50, seed=0)
        assert report.counterexample is None
        assert report.undecided > 0 and report.passed + report.undecided == 50

    def test_a_counterexample_that_leaves_the_float_range_is_undecided(self, tmp_path):
        # w = L moves the gap by μ, but `rescale` takes x, of L^1e308, past
        # the float range at a log factor above 1.8
        spec = _spec_text(tmp_path, {"x": f"L^{10**308}", "y": f"L^{10**308 - 1}"}, "x < y")
        shrunk = Rescaling(spec.system, (2.0,))
        assert harness._confirmed(spec, 0, {"x": 0.0, "y": 1.0}, shrunk, True, 1e-9) is None
        # seed 0: trial 5 fails, shrunk no further than a log factor of 4.3
        report = fuzz_invariance(spec, trials=200, seed=0)
        assert report.undecided > 0
        assert report.counterexample.trial_index > 5

    def test_report_invariant_counts_undecided(self):
        assert InvarianceReport(trials=3, passed=1, seed=0, counterexample=None, inapplicable=1, undecided=1)
        with pytest.raises(ValueError):
            InvarianceReport(trials=3, passed=1, seed=0, counterexample=None, inapplicable=1)


def _corpus_spec(text, env):
    return dsl.ProblemSpec(CORPUS_SYSTEM, tuple(env), tuple(env.values()), dsl.parse_relation(text), text)


def _stream_specs():
    """(id, spec): the non-invariant corpus shapes, `and`/`or`/`not` of two
    mixed comparisons, a mixed seeded relation whose linear other side is
    sometimes not positive, so that the seeder both skips and is reused, and
    a mixed comparison of six variables over three fundamentals, so that a
    trial makes nine draws, one past its first block."""
    rng = random.Random(191)
    out = []
    for template in ("hidden_constant", "mixed_lt"):
        for i in range(2):
            out.append((f"{template}#{i}", _corpus_spec(*corpus_relation(rng, template))))
    length, time, mass = (DimVector.unit(CORPUS_SYSTEM, f) for f in ("L", "T", "M"))
    for text in ("x < y and y <= z", "x < y or y <= z", "not x < y", "not (x < y and z = y)"):
        out.append((text, _corpus_spec(text, {"x": length, "y": time, "z": mass})))
    text = "x = y - z"
    out.append((text, _corpus_spec(text, {"x": length, "y": time, "z": time})))
    text = "a*b*c < d*e*f"
    out.append((text, _corpus_spec(text, dict.fromkeys("abcde", length) | {"f": time})))
    return out


def _nodes(node):
    yield node
    for child in dsl.children(node):
        yield from _nodes(child)


def _recording_kernel(monkeypatch, spec, passing=False):
    """Wrap the spec's trial kernel; returns (blocks, returned): the digest
    of each trial's hash, and what each of its trials returns. Where
    passing, each trial reports a pass to the run whatever it returned, so
    a run draws every trial of its budget."""
    plan, blocks, returned = spec.fuzz_plan, [], []
    make = plan.kernel

    def kernel(tol):
        trial, decide, shrink = make(tol)

        def recorded(h):
            blocks.append(h.digest())
            returned.append(trial(h))
            return None if passing else returned[-1]

        return recorded, decide, shrink

    monkeypatch.setattr(plan, "kernel", kernel)
    return blocks, returned


class TestTrialStream:
    """Each trial draws what `trial_draws` draws for its (seed, trial), read
    off the digest of its own key; and the reports, each side and value
    before rescaling worked out once per drawn point, equal the reference's."""

    @pytest.mark.parametrize("seed", [0, 7, -5, 2**31 - 1])
    def test_draws_equal_the_reference_stream(self, monkeypatch, seed):
        spec = dict(_stream_specs())["not x < y"]
        # the run would stop at its first counterexample: each trial passes
        # to it, so the plan kernel's trial runs on all 1000 of the run's hashes
        blocks, returned = _recording_kernel(monkeypatch, spec, passing=True)
        fuzz_invariance(spec, trials=1000, seed=seed)
        assert len(blocks) == 1000 and len(returned) == 1000
        failed = 0
        for trial in range(1000):
            # each trial hashes its own key, and nothing else
            assert blocks[trial] == blake2b(f"{seed}:{trial}".encode()).digest()
            if returned[trial] is None:
                continue
            # and a failing trial's logs and factors are what the reference draws
            draws = trial_draws(seed, trial)
            logs = [trial_uniform(draws, harness._LOG_MAG_RANGE).hex() for _ in spec.variable_names]
            factors = [trial_uniform(draws, harness._LOG_FACTOR_RANGE).hex() for _ in spec.system.names]
            _, point, log_factors = returned[trial]
            assert ([v.hex() for v in point], [m.hex() for m in log_factors]) == (logs, factors)
            failed += 1
        assert failed > 100

    @pytest.mark.parametrize("spec", [s for _, s in _stream_specs()], ids=[n for n, _ in _stream_specs()])
    def test_reports_equal_the_reference(self, spec):
        for seed in (2, 13, 31):
            for tol in (1e-9, 0.5):
                expected = _fingerprint(reference_fuzz, spec, 200, seed, tol)
                assert _fingerprint(fuzz_invariance, spec, 200, seed, tol) == expected, (seed, tol)

    @pytest.mark.parametrize("name", ["hidden_constant#0", "mixed_lt#0", "x = y - z"])
    def test_each_side_is_evaluated_once_per_drawn_point(self, monkeypatch, name):
        # each side is lowered once into the kernel, a seeded side by the
        # seeder alone: the kernel is straight-line, so a side runs at most
        # once per trial, and once per candidate the shrinker decides
        spec = dict(_stream_specs())[name]
        assert not spec.fuzz_plan.proven  # its plan made, its kernel not yet
        lowered, native = [], dsl.Lowering.native
        with monkeypatch.context() as patched:
            patched.setattr(dsl.Lowering, "native", lambda low, node: lowered.append(node) or native(low, node))
            spec.fuzz_plan.kernel
        report = fuzz_invariance(spec, trials=200, seed=2)
        assert report.counterexample is not None
        sides = (spec.relation.left, spec.relation.right)
        assert [sum(node is side for node in lowered) for side in sides] == [1, 1]
        # the kernel lowered nothing else that is not part of a side
        parts = [node for side in sides for node in _nodes(side)]
        assert all(any(node is part for part in parts) for node in lowered)

    @pytest.mark.parametrize("spec", [s for _, s in _stream_specs()], ids=[n for n, _ in _stream_specs()])
    def test_decide_at_a_failing_trial_gives_that_trial(self, spec):
        # the shrinker decides each candidate through `decide` at the
        # trial's point; at the trial's own factors, seeded point included,
        # it returns what the trial returned
        failed = 0
        for seed in (0, 1, 2):
            for tol in (1e-9, 1.5):
                trial, decide, _ = spec.fuzz_plan.kernel(tol)
                for t in range(200):
                    try:
                        result = trial(blake2b(f"{seed}:{t}".encode()))
                    except (EvaluationError, harness._Undecided):
                        continue
                    if result is not None:
                        _, point, factors = result
                        assert decide(*point, *factors) == result
                        failed += 1
        assert failed > 0


def _refuted_corpus_specs(corpus):
    """(id, spec, fuzz seed) for hidden_constant and every fuzz-corpus
    relation of corpus seeds 0-1, round 0, that a 1000-trial run refutes."""
    out = [("hidden_constant", _spec("hidden_constant"), 0)]
    for seed in (0, 1):
        state = corpus.prepare(seed, SimpleNamespace(root=FIXTURES.parent))
        # each relation's fuzz seed in round 0, as `corpus.round_ops` draws it
        rng = random.Random(f"{corpus.NAME}:{seed}:0")
        for name, _, spec, _, _ in state["corpus"]:
            fuzz_seed = rng.randrange(2**31)
            try:
                report = fuzz_invariance(spec, trials=1000, seed=fuzz_seed)
            except EvaluationError:
                continue
            if report.counterexample is not None:
                out.append((f"{seed}:{name}", spec, fuzz_seed))
    return out


class TestStopAtTheCounterexample:
    """A run stops at its first confirmed counterexample: a refuted report
    does not depend on the budget past that trial, and no trial past it is
    drawn."""

    def test_no_trial_is_drawn_past_the_counterexample(self, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        import corpus

        cases = _refuted_corpus_specs(corpus)
        assert len(cases) > 10
        for name, spec, seed in cases:
            blocks, _ = _recording_kernel(monkeypatch, spec)
            report = fuzz_invariance(spec, trials=1000, seed=seed)
            k = report.counterexample.trial_index
            assert len(blocks) == k + 1, name
            # field for field but `trials`, the run whose budget ends at k
            short = fuzz_invariance(spec, trials=k + 1, seed=seed)
            assert _with_budget(short, 1000) == report, name
            assert report.passed + report.inapplicable + report.undecided == k, name


def _drawing_trial(monkeypatch, spec, unit=False):
    """The spec's trial with its decide swapped for one that returns what it
    is given: h -> the log magnitudes and log factors the trial draws from
    h, as one tuple; built over unit draw ranges where unit."""
    with monkeypatch.context() as patched:
        if unit:
            patched.setattr(harness, "_LOG_MAG_RANGE", (0.0, 1.0))
            patched.setattr(harness, "_LOG_FACTOR_RANGE", (0.0, 1.0))
        trial, _, _ = harness._trial_kernel(spec.fuzz_plan)(1e-9)
    cells = dict(zip(trial.__code__.co_freevars, trial.__closure__))
    cells["decide"].cell_contents = lambda *drawn: drawn
    return trial


class TestCounterBasedStream:
    """A trial's draws come straight off the blake2b digests of its key,
    with no generator state: uniform in every slot, a second block past the
    eighth draw, and each trial a pure function of (seed, trial)."""

    def test_each_slot_is_uniform(self, monkeypatch):
        # 10^5 draws in each slot of block 0 and in slot 0 of block 1, over
        # 100 equal bins: each chi-square statistic lies within the central
        # 99.8% of chi-square with 99 degrees of freedom (Wilson and
        # Hilferty's cube-root form), neither too far from uniform nor too near
        trial = _drawing_trial(monkeypatch, dict(_stream_specs())["a*b*c < d*e*f"], unit=True)
        bins, n = 100, 10**5
        counts = [[0] * bins for _ in range(9)]
        for t in range(n):
            for slot, u in zip(counts, trial(blake2b(b"0:%d" % t))):
                slot[int(u * bins)] += 1
        k, z = bins - 1, statistics.NormalDist().inv_cdf(0.999)
        lo, hi = (k * (1 - 2 / (9 * k) + e * math.sqrt(2 / (9 * k))) ** 3 for e in (-z, z))
        stats = [sum((c - n / bins) ** 2 for c in slot) / (n / bins) for slot in counts]
        assert all(lo < s < hi for s in stats), (lo, hi, stats)

    def test_the_ninth_draw_reads_the_second_block(self, monkeypatch):
        trial = _drawing_trial(monkeypatch, dict(_stream_specs())["a*b*c < d*e*f"], unit=True)
        for seed, t in ((0, 0), (7, 1), (-5, 971)):
            blocks = (blake2b(f"{seed}:{t}".encode()).digest(), blake2b(f"{seed}:{t}:1".encode()).digest())
            words = [int.from_bytes(b[i:i + 8], "big") for b in blocks for i in range(0, 64, 8)]
            assert trial(blake2b(f"{seed}:{t}".encode())) == tuple((w >> 11) * 2**-53 for w in words[:9])

    def test_a_trial_reproduces_alone(self, monkeypatch):
        # a fresh kernel runs trial k and no other: its logs and factors are
        # the reference's draws at (seed, k)
        spec = dict(_stream_specs())["hidden_constant#0"]
        for seed, k in ((0, 0), (0, 17), (3, 971), (-2, 12345)):
            trial = _drawing_trial(monkeypatch, spec)
            draws = trial_draws(seed, k)
            expected = [trial_uniform(draws, harness._LOG_MAG_RANGE) for _ in spec.variable_names]
            expected += [trial_uniform(draws, harness._LOG_FACTOR_RANGE) for _ in spec.system.names]
            drawn = trial(blake2b(f"{seed}:{k}".encode()))
            assert [v.hex() for v in drawn] == [v.hex() for v in expected], (seed, k)


def _failing_trials(spec, seeds, tols, trials):
    """(decide, shrink, point, log factors) at each failing trial of the
    spec's kernel, over the given seeds and tols."""
    for tol in tols:
        trial, decide, shrink = spec.fuzz_plan.kernel(tol)
        for seed in seeds:
            for t in range(trials):
                try:
                    failed = trial(blake2b(f"{seed}:{t}".encode()))
                except (EvaluationError, harness._Undecided):
                    continue
                if failed is not None:
                    yield decide, shrink, failed[1], failed[2]


def _hex(floats):
    return [v.hex() for v in floats]


class TestKernelShrink:
    """The kernel's `shrink` works out what the factors do not move once and
    bisects only the live factors, and gives what bisecting every factor in
    every round through `decide` gives, float for float."""

    def test_corpus_failing_trials_shrink_as_the_reference(self, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        import corpus

        shrunk = 0
        for seed in range(12):
            state = corpus.prepare(seed, SimpleNamespace(root=FIXTURES.parent))
            # each relation's fuzz seed in round 0, as `corpus.round_ops` draws it
            rng = random.Random(f"{corpus.NAME}:{seed}:0")
            for (_, _, spec, _, _) in state["corpus"]:
                fuzz_seed = rng.randrange(2**31)
                if spec.fuzz_plan.proven:
                    continue
                for decide, shrink, point, factors in _failing_trials(
                        spec, [fuzz_seed], (1e-9, 0.5), corpus.TRIALS):
                    expected = reference_shrink(decide, point, factors)
                    assert _hex(shrink(*point, *factors)) == _hex(expected), spec.relation_text
                    shrunk += 1
        assert shrunk > 10000

    @pytest.mark.parametrize("variables, relation, system", [
        # the first mixed comparison under a guard
        ({"a": "L", "b": "L", "x": "L", "y": "T"}, "a < b or x < y", ("L", "T")),
        ({"x": "L", "y": "T"}, "not x < y", ("L", "T")),
        # two mixed comparisons, the second guarded
        ({"x": "L", "y": "T", "z": "M"}, "x < y and y <= z", ("L", "T", "M")),
        ({"x": "L", "y": "T", "z": "M"}, "x < y or y <= z", ("L", "T", "M")),
        # a seeded '=' with a mixed side
        ({"x": "L", "y": "T", "z": "T"}, "x = y - z", ("L", "T")),
        # M is dead: no comparison reads its factor
        ({"x": "L", "y": "T"}, "x < y", ("M", "L", "T")),
        # the first mixed comparison's w has no float form
        ({"x": f"L^{10**308}", "y": f"L^-{10**308}", "z": "L"}, "x < y or z < x", ("L",)),
    ])
    def test_hand_shapes_shrink_as_the_reference(self, tmp_path, variables, relation, system):
        spec = _spec_text(tmp_path, variables, relation, system=system)
        shrunk = 0
        for decide, shrink, point, factors in _failing_trials(spec, range(4), (1e-9, 0.5), 100):
            expected = reference_shrink(decide, point, factors)
            assert _hex(shrink(*point, *factors)) == _hex(expected)
            shrunk += 1
        assert shrunk > 10

    def test_a_dead_factor_ends_halved_every_round(self, tmp_path):
        spec = _spec_text(tmp_path, {"x": "L", "y": "T"}, "x < y", system=("M", "L", "T"))
        decide, shrink, point, factors = next(_failing_trials(spec, [0], [1e-9], 100))
        assert factors[0] != 0.0
        assert shrink(*point, *factors)[0] == math.ldexp(factors[0], -harness._SHRINK_ROUNDS)
        # and a dead factor of 0 stays 0, which still violates
        factors = [0.0, *factors[1:]]
        assert decide(*point, *factors) is not None
        assert shrink(*point, *factors) == reference_shrink(decide, point, factors)
        assert shrink(*point, *factors)[0] == 0.0

    def test_fuzz_invariance_shrinks_through_the_module_function(self, tmp_path, monkeypatch):
        # the benchmark traces harness._shrink by its module attribute: each
        # shrunk trial is one call through it, a confirmed one or not
        calls = []
        shrink = harness._shrink
        monkeypatch.setattr(harness, "_shrink", lambda *args: calls.append(args) or shrink(*args))
        report = fuzz_invariance(_spec("hidden_constant"), trials=100, seed=0)
        assert report.counterexample is not None and len(calls) == 1
        calls.clear()
        spec = _spec_text(tmp_path, {"x": "L", "y": "T"}, "x < y", system=("L", "T"))
        monkeypatch.setattr(harness, "evaluate", lambda *args, **kwargs: True)
        report = fuzz_invariance(spec, trials=50, seed=0)
        assert report.counterexample is None and len(calls) == report.undecided > 0


class TestChecksBeforeTheFirstTrial:
    """What `rescale` found on the first trial is found at entry, with the
    same error, and no trial runs."""

    def _no_trials(self, monkeypatch):
        def blake2b(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "blake2b", blake2b)

    def test_dimensions_over_another_system(self, monkeypatch):
        spec = _spec("hidden_constant")
        other = DimSystem(spec.system.names + ("M",))
        dims = tuple(DimVector(other, d.exponents + (Fraction(0),)) for d in spec.variable_dims)
        moved = dsl.ProblemSpec(spec.system, spec.variable_names, dims, spec.relation, spec.relation_text)
        self._no_trials(monkeypatch)
        with pytest.raises(DimensionMismatchError, match="different systems"):
            fuzz_invariance(moved, trials=10, seed=0)

    def test_system_swapped(self, monkeypatch):
        spec = _spec("newton")
        swapped = dsl.ProblemSpec(
            DimSystem(("L", "T", "M", "K")), spec.variable_names, spec.variable_dims,
            spec.relation, spec.relation_text,
        )
        self._no_trials(monkeypatch)
        with pytest.raises(DimensionMismatchError, match="different systems"):
            fuzz_invariance(swapped, trials=10, seed=0)

    def test_exponent_beyond_the_float_range(self, tmp_path, monkeypatch):
        spec = _spec_text(tmp_path, {"x": f"L^{10**310}", "y": "L"}, "x < y")
        self._no_trials(monkeypatch)
        with pytest.raises(SpecError, match="variable 'x' .*beyond the float range"):
            fuzz_invariance(spec, trials=10, seed=0)


class TestOracleEquivalent:
    def test_rescaled_tuples_in_row_space(self):
        rng = random.Random(131)
        for _ in range(100):
            system, dims = random_dims(rng, max_n=6, max_d=3)
            xs = random_quantities(rng, dims)
            factors = Rescaling(system, tuple(rng.uniform(-4, 4) for _ in system.names))
            assert oracle_equivalent(xs, rescale(xs, factors))

    def test_dim_mismatch_rejected(self):
        system, dims = mass_spring_dims()
        xs = [Quantity(0.0, d) for d in dims]
        ys = [xs[1], xs[0], xs[2]]
        with pytest.raises(DimensionMismatchError):
            oracle_equivalent(xs, ys)

    def test_agreement_with_equivalence_verdicts(self):
        rng = random.Random(137)
        done = 0
        disagreements = 0
        while done < 200:
            system, dims = random_dims(rng, max_n=6, max_d=3)
            basis = pi_basis(dims)
            slots = [
                i
                for i in range(len(dims))
                if any(g.exponents[i] != 0 for g in basis.groups)
            ]
            xs = random_quantities(rng, dims)
            factors = Rescaling(system, tuple(rng.uniform(-3, 3) for _ in system.names))
            ys = rescale(xs, factors)
            if basis.r > 0 and slots and rng.random() < 0.5:
                slot = rng.choice(slots)
                delta = rng.uniform(1e-4, 1e-1)
                ys[slot] = Quantity(ys[slot].log_magnitude + math.log1p(delta), ys[slot].dim)
            verdict = equivalent(basis, xs, ys).equivalent
            oracle = oracle_equivalent(xs, ys)
            disagreements += verdict != oracle
            done += 1
        assert disagreements == 0

    def test_perturbation_outside_row_space_detected(self):
        system, dims = mass_spring_dims()
        rng = random.Random(139)
        xs = random_quantities(rng, dims)
        ys = list(xs)
        ys[2] = Quantity(ys[2].log_magnitude + math.log(1.01), ys[2].dim)
        assert not oracle_equivalent(xs, ys)

    def test_dimensionless_slots_compare_directly(self):
        system = DimSystem(("M",))
        zero = DimVector.zero(system)
        xs = [Quantity(0.3, zero)]
        assert oracle_equivalent(xs, xs)
        assert not oracle_equivalent(xs, [Quantity(0.4, zero)])


_POWERS = (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 3), Fraction(-7, 2), Fraction(50),
           Fraction(103), Fraction(1000))
_CONSTANTS = (0.5, 2.0, 7.25, 3e299, 1e300, 1e-300)


def _quantity(rng, dim, depth, names="xyz"):
    """A node of dimension L^dim over names (each of dimension L), built from
    the whole quantity grammar: sums, differences, products, quotients,
    rational and large powers, sqrt, and exp/log/sin/cos of dimensionless
    operands, logs of sums among them."""
    if depth == 0 or rng.random() < 0.2:
        if dim == 0:
            if rng.random() < 0.5:
                return dsl.Const(rng.choice(_CONSTANTS))
            return dsl.BinOp("/", dsl.Var(rng.choice(names)), dsl.Var(rng.choice(names)))
        v = dsl.Var(rng.choice(names))
        return v if dim == 1 else dsl.Pow(v, Fraction(dim))
    kind = rng.choice(("*", "/", "+", "-", "^", "sqrt", "call", "call"))
    if kind == "call" and dim == 0:
        func = rng.choice(("exp", "log", "sin", "cos"))
        return dsl.Call(func, _quantity(rng, 0, depth - 1, names))
    if kind in ("+", "-"):
        return dsl.BinOp(kind, _quantity(rng, dim, depth - 1, names), _quantity(rng, dim, depth - 1, names))
    if kind == "^":
        p = rng.choice(_POWERS)
        return dsl.Pow(_quantity(rng, Fraction(dim) / p, depth - 1, names), p)
    if kind == "sqrt":
        return dsl.Call("sqrt", _quantity(rng, 2 * Fraction(dim), depth - 1, names))
    j = rng.choice((0, 1, -1))
    if kind == "/":
        return dsl.BinOp("/", _quantity(rng, dim + j, depth - 1, names), _quantity(rng, j, depth - 1, names))
    return dsl.BinOp("*", _quantity(rng, j, depth - 1, names), _quantity(rng, dim - j, depth - 1, names))


def _truth(rng, depth):
    """A relation over x, y, z without mixed comparisons: comparisons of one
    dimension, is_pos_int, and/or/not around them."""
    r = rng.random()
    if depth and r < 0.25:
        return dsl.BoolOp(rng.choice(("and", "or")), _truth(rng, depth - 1), _truth(rng, depth - 1))
    if depth and r < 0.35:
        return dsl.Not(_truth(rng, depth - 1))
    if r < 0.45:
        return dsl.Call("is_pos_int", _quantity(rng, 0, 2))
    dim = rng.choice((Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)))
    return dsl.Compare(rng.choice(("=", "<", "<=")), _quantity(rng, dim, 2), _quantity(rng, dim, 2))


def _relation(rng):
    if rng.random() < 0.3:  # equality-seeded: x solved for from y and z
        return dsl.Compare("=", dsl.Var("x"), _quantity(rng, 1, 2, names="yz"))
    return _truth(rng, 2)


_LINE = DimSystem(("L",))


def _line_spec(relation):
    """relation over x, y, z, each of dimension L."""
    if isinstance(relation, str):
        relation = dsl.parse_relation(relation)
    length = DimVector.unit(_LINE, "L")
    return dsl.ProblemSpec(_LINE, ("x", "y", "z"), (length,) * 3, relation, dsl.print_relation(relation))


def _is_proven(spec):
    return harness._proven(spec, harness._equality_seed_target(spec))


def _seeded_log(spec):
    """logs -> the log magnitude the fuzzer seeds its variable with, from the
    other side compiled apart; None where the relation is seeded nowhere."""
    seed_target = harness._equality_seed_target(spec)
    if seed_target is None:
        return None
    other = dsl.compile_relation(seed_target[1], spec.env)
    env = spec.env
    return lambda logs: dsl.evaluate(other, {n: Quantity(logs[n], d) for n, d in env.items()}).log_magnitude


# (relation over x, y, z of dimension L, its report at 300 trials and seed 0
# as (passed, inapplicable)): one trial or none leaves the domain on the
# last two, though some point of the box does, so none may be proven
_EDGES = (
    ("exp(x/y) < 2", (265, 35)),
    ("log(x/y - 1) < 1", (142, 158)),
    ("(x - y)^2 < z*z", (142, 158)),
    ("exp(x/y*100) < 1", (198, 102)),
    ("x^103 + y^103 < z^103", (299, 1)),  # overflows at the corners of the box
    ("not x < y or exp(x/y) < 5", (300, 0)),  # the left operand decides where exp overflows
)


class TestProvenDomain:
    """A relation with no mixed comparison that one interval pass proves
    defined on the whole sampling box passes every trial, none drawn; every
    other relation runs the trial loop."""

    def test_reports_equal_the_reference_across_the_grammar(self):
        rng = random.Random(173)
        proven = unproven = 0
        for _ in range(150):
            spec = _line_spec(_relation(rng))
            is_proven = _is_proven(spec)
            for seed in (0, 5, 11):
                expected = _fingerprint(reference_fuzz, spec, 40, seed, 1e-9)
                assert _fingerprint(fuzz_invariance, spec, 40, seed, 1e-9) == expected, spec.relation_text
                if is_proven:
                    assert expected[:3] == (40, 40, 0), spec.relation_text
            proven += is_proven
            unproven += not is_proven
        assert proven > 30 and unproven > 30, (proven, unproven)

    @pytest.mark.parametrize("text,counts", _EDGES, ids=[t for t, _ in _EDGES])
    def test_edges_fall_back_to_the_loop(self, text, counts):
        spec = _line_spec(text)
        assert not _is_proven(spec)
        report = fuzz_invariance(spec, trials=300, seed=0)
        assert (report.passed, report.inapplicable, report.counterexample) == (*counts, None)
        assert _fingerprint(fuzz_invariance, spec, 300, 0, 1e-9) == _fingerprint(
            reference_fuzz, spec, 300, 0, 1e-9
        )

    def test_proven_relations_hold_at_every_corner(self):
        # the box's ends, the point between them and the float below the top,
        # in every combination, and x seeded where the relation asks
        lo, hi = harness._LOG_MAG_RANGE
        ends = (lo, hi, 0.0, math.nextafter(hi, 0.0))
        rng = random.Random(181)
        proven = 0
        for _ in range(400):
            spec = _line_spec(_relation(rng))
            if not _is_proven(spec):
                continue
            seeded = _seeded_log(spec)
            truth = dsl.compile_relation(spec.relation, spec.env).run
            for point in itertools.product(ends, repeat=3):
                logs = dict(zip("xyz", point))
                if seeded is not None:
                    try:
                        logs["x"] = seeded(logs)
                    except EvaluationError:  # not positive: x keeps its drawn log
                        pass
                assert truth(logs, 1e-9) in (True, False), spec.relation_text
            proven += 1
        assert proven > 150

    @pytest.mark.parametrize("text", [t for t, _ in _EDGES[:-1]] + [
        "sqrt((x/y)^50)*(x/y)^30 + 1 < 2",  # a log of 759 at the corners, where exp overflows
    ])
    def test_relations_undefined_at_a_corner_are_not_proven(self, text):
        lo, hi = harness._LOG_MAG_RANGE
        spec = _line_spec(text)
        assert not _is_proven(spec)
        seeded = _seeded_log(spec)
        truth = dsl.compile_relation(spec.relation, spec.env).run
        undefined = 0
        for point in itertools.product((lo, hi), repeat=3):
            logs = dict(zip("xyz", point))
            try:
                if seeded is not None:
                    logs["x"] = seeded(logs)
                truth(logs, 1e-9)
            except EvaluationError:
                undefined += 1
        assert undefined

    def test_a_seeded_side_defined_but_not_positive_is_proven(self, tmp_path):
        # x is seeded to the other side only where that is positive, and x
        # is nowhere else: a seeded log with no lower bound only makes exp
        # underflow toward 0
        ratio = _spec_text(tmp_path, {"x": "1", "y": "L", "z": "L"}, "x = log(y/z)")
        for spec in (_line_spec("x = y - z"), ratio):
            assert _is_proven(spec), spec.relation_text
            expected = _fingerprint(reference_fuzz, spec, 1000, 0, 1e-9)
            assert expected == (1000, 1000, 0, 0, None, 0), spec.relation_text
            assert _fingerprint(fuzz_invariance, spec, 1000, 0, 1e-9) == expected
        assert _is_proven(_line_spec("x = y + z"))
        # y^2000 overflows on most of the box, and the seeded log with it
        assert not _is_proven(_line_spec("x = y^2000 - z"))
        # every log the proof converts stays within ±700, a seeded one too
        assert _is_proven(_line_spec("x = 8*y^101 - z"))
        assert not _is_proven(_line_spec("x = 8*y^101 + 8*y^101 - z"))

    def test_a_proven_relation_draws_nothing(self, monkeypatch):
        def blake2b(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        rng = random.Random(179)
        specs = [_spec(name) for name in
                 ("newton", "light_three_var", "electronics", "independent_dims", "mass_spring")]
        for template in ("power_lt", "seeded_eq", "sum_le", "log_sin", "bool_mix"):
            for _ in range(5):
                text, env = corpus_relation(rng, template)
                specs.append(dsl.ProblemSpec(CORPUS_SYSTEM, tuple(env), tuple(env.values()),
                                             dsl.parse_relation(text), text))
        monkeypatch.setattr(harness, "blake2b", blake2b)
        for spec in specs:
            report = fuzz_invariance(spec, trials=1000, seed=3)
            assert (report.passed, report.counterexample) == (1000, None), spec.relation_text

    def test_errors_come_before_the_proof(self, tmp_path):
        spec = _spec("newton")
        with pytest.raises(ValueError, match="at least one trial"):
            fuzz_invariance(spec, trials=0)
        with pytest.raises(ValueError, match="tol must be a number"):
            fuzz_invariance(spec, trials=10, tol=math.nan)
        with pytest.raises(SpecError, match="ill-typed"):
            fuzz_invariance(_spec_text(tmp_path, {"x": "L", "y": "T"}, "x + y < x",
                                       system=("L", "T")), trials=10)
        with pytest.raises(SpecError, match="truth value"):
            fuzz_invariance(_spec_text(tmp_path, {"x": "L"}, "x*x"), trials=10)
        with pytest.raises(SpecError, match="beyond the float range"):
            fuzz_invariance(_spec_text(tmp_path, {"x": f"L^{10**310}", "y": "L"}, "x = x"), trials=10)

    @pytest.mark.parametrize("fuzz", [fuzz_invariance, reference_fuzz], ids=["harness", "reference"])
    @pytest.mark.parametrize("name", ["newton", "hidden_constant"])
    @pytest.mark.parametrize("argument,value", [
        ("trials", 2.5), ("trials", True), ("trials", "10"), ("seed", 1.5), ("seed", "abc"), ("seed", False),
    ])
    def test_trials_and_seed_must_be_ints(self, fuzz, name, argument, value):
        # a proven spec and a sampled one, refused before the plan is made
        spec = _spec(name)
        arguments = {"trials": 10, "seed": 0, argument: value}
        with pytest.raises(TypeError, match=f"^{argument} must be an int, got {type(value).__name__}$"):
            fuzz(spec, **arguments)
        assert "fuzz_plan" not in vars(spec)


class TestReferenceNearTheFloatLimit:
    """A mixed comparison whose side overflows at a drawn point: the
    reference counts that trial inapplicable, as the fuzzer does."""

    @pytest.mark.parametrize("text", [
        "y^103 - z^103 = x", "x < y^103 - z^103", "y^103 + x*z^102 <= z^103",
    ])
    def test_reports_equal_the_reference(self, text):
        spec = _line_spec(text)
        for seed in range(30):
            expected = _fingerprint(reference_fuzz, spec, 300, seed, 1e-9)
            assert _fingerprint(fuzz_invariance, spec, 300, seed, 1e-9) == expected, seed


# A relation over x, y, z of dimension L that the pass proves, for each
# function and binary operator of the grammar
_PROVEN_USES = {
    "exp": "exp(sin(x/y)) < 2", "log": "log(x/y) < 1", "sin": "sin(x/y) < 1",
    "cos": "cos(x/y) <= 1", "sqrt": "sqrt(x*y) < z", "is_pos_int": "is_pos_int(x/y)",
    "or": "x < y or y < z", "and": "x < y and y < z", "=": "x = y", "<": "x < y", "<=": "x <= y",
    "+": "x + y < z", "-": "x - y < z", "*": "x*y < z*z", "/": "x/y < 2",
}


class TestProofGrammar:
    """Every form of the relation grammar has a rule in `enclose`, as in
    its reference, and a form without one is never proven."""

    def test_every_function_and_operator_has_a_rule(self):
        assert set(_PROVEN_USES) == set(dsl.FUNCTIONS) | set(dsl._BINARY)
        box = dict.fromkeys("xyz", harness._LOG_MAG_RANGE)
        for text in _PROVEN_USES.values():
            assert _is_proven(_line_spec(text)), text
            node = dsl.parse_relation(text)
            for tol in (0.0, 1e-9, 0.5, 1.5):
                assert enclose(node, box, tol) == reference_bounds(node, box, tol), text

    def test_every_node_class_has_a_rule(self):
        seen = set()

        def walk(node):
            seen.add(type(node))
            for child in vars(node).values() if hasattr(node, "__dict__") else ():
                if isinstance(child, tuple(typing.get_args(dsl.Node))):
                    walk(child)

        for text in (*_PROVEN_USES.values(), "not x^2 < pi*y*z"):
            assert _is_proven(_line_spec(text)), text
            walk(dsl.parse_relation(text))
        assert seen == set(typing.get_args(dsl.Node))

    @pytest.mark.parametrize("node", [
        pytest.param(node, id=label) for label, node in (
            ("None", None), ("str", "x < y"), ("float", 1.0), ("object", object()),
            ("Fraction", Fraction(1)), ("bool", True),
            ("unknown function", dsl.Call("tan", dsl.Var("x"))),
            ("unknown comparison", dsl.Compare("!=", dsl.Var("x"), dsl.Var("y"))),
            ("unknown operator", dsl.Compare("<", dsl.BinOp("%", dsl.Var("x"), dsl.Var("y")), dsl.Var("z"))),
            ("unknown connective", dsl.BoolOp("xor", dsl.Compare("<", dsl.Var("x"), dsl.Var("y")),
                                               dsl.Compare("<", dsl.Var("y"), dsl.Var("z")))),
            ("variable outside the box", dsl.Compare("<", dsl.Var("w"), dsl.Var("x"))),
            ("quantity as a truth value", dsl.Not(dsl.Var("x"))),
            ("truth value as a quantity",
             dsl.Compare("<", dsl.Compare("<", dsl.Var("x"), dsl.Var("y")), dsl.Var("z"))),
        )
    ])
    def test_what_has_no_rule_is_not_proven(self, node):
        box = dict.fromkeys("xyz", harness._LOG_MAG_RANGE)
        assert enclose(node, box, 1e-9) is None
        assert reference_bounds(node, box, 1e-9) is None

    def test_an_instance_of_a_subclass_of_a_node_class_is_no_node(self):
        class SubVar(dsl.Var):
            pass

        box = dict.fromkeys("xyz", harness._LOG_MAG_RANGE)
        node = dsl.Compare("<", SubVar("x"), dsl.Var("y"))
        # a `match` class pattern accepts it
        assert reference_bounds(node, box, 1e-9) == (dsl.TRUTH, False, True)
        assert enclose(node, box, 1e-9) is None


_SPEC_FIXTURES = ("electronics", "hidden_constant", "independent_dims", "light_three_var",
                  "mass_spring", "newton")


class TestProofPin:
    """`_proven`'s answer on a fixed list of specs, hashed in order. A
    proven relation and an unproven one that passes every trial give the
    same report, so no report digest sees a proof flip; this does."""

    def test_answers_are_unchanged(self, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        import corpus

        rng = random.Random("proof-pin")
        specs = [_line_spec(_relation(rng)) for _ in range(3000)]
        specs += [_spec(name) for name in _SPEC_FIXTURES]
        specs += [_line_spec(text) for text in (*_PROVEN_USES.values(), *(t for t, _ in _EDGES))]
        for seed in range(40):
            state = corpus.prepare(seed, SimpleNamespace(root=FIXTURES.parent))
            specs += [spec for _, _, spec, _, _ in state["corpus"]]
        answers = "".join("01"[_is_proven(spec)] for spec in specs)
        digest = blake2b(answers.encode(), digest_size=32).hexdigest()
        assert (len(answers), answers.count("1"), digest) == (
            4467, 3422, "a5cc1192f046fb2dd4026206ac322dea0dfaee94c93c70b374d71b4a2b90968b")


class TestEnclosureTruth:
    """A truth that `enclose` decides is the compiled relation's truth
    wherever its box reaches: on a point box, at that point, and nothing is
    enclosed where the relation leaves the domain there; on the sampling
    box, at every corner."""

    def test_decided_truths_agree_with_the_compiled_relation(self):
        rng = random.Random("enclosure-truth")
        lo, hi = harness._LOG_MAG_RANGE
        box = dict.fromkeys("xyz", (lo, hi))
        corners = [dict(zip("xyz", c)) for c in itertools.product((lo, hi), repeat=3)]
        seen = Counter()
        for _ in range(3000):
            node = _relation(rng)
            run = dsl.compile_relation(node, _line_spec(node).env).run
            points = [{n: rng.uniform(lo, hi) for n in "xyz"} for _ in range(3)]
            for tol in (1e-9, 1e-3, 0.5, 1.5):
                for logs in points:
                    found = enclose(node, {n: (v, v) for n, v in logs.items()}, tol)
                    try:
                        truth = run(logs, tol)
                    except EvaluationError:
                        assert found is None, (dsl.print_relation(node), logs, tol)
                        seen["raised"] += 1
                        continue
                    if found is not None and found[1] == found[2]:
                        assert found[1] == truth, (dsl.print_relation(node), logs, tol)
                        seen[truth] += 1
                    else:
                        seen["open"] += 1
                found = enclose(node, box, tol)
                if found is not None and found[1] == found[2]:
                    for logs in corners:
                        assert run(logs, tol) == found[1], (dsl.print_relation(node), logs, tol)
                    seen["box", found[1]] += 1
        for outcome in (True, False, "open", "raised", ("box", True), ("box", False)):
            assert seen[outcome] > 200, seen


# seeded relations with no mixed comparison, over x, y, z of dimension L:
# each leaves the domain at some drawn points, the last at every one
_SEEDED = ("x = log(y/z)*z", "x = exp(y/z)*z - z", "sin(y/z)*z = x", "x = log(y/y - 1)*y")


class TestSeederDecides:
    """A seeded `v = expr` with no mixed comparison passes exactly where the
    seeder evaluates expr: v is a bare side, and the exp of the log of any
    finite positive value is finite. So expr runs once per trial, and a
    trial on which it leaves the domain is inapplicable with the seeder's
    error."""

    def test_the_other_side_runs_once_per_trial(self, monkeypatch):
        spec = dsl.problem_spec_from_dict({
            "system": ["L"], "variables": {"x": "L^103", "y": "L", "z": "L"},
            "relation": "x = y^103 + z^103",
        })
        assert not spec.fuzz_plan.proven
        original, calls = dsl._exp, [0]

        def counted(v):
            calls[0] += 1
            return original(v)

        # the kernel, built on the first call, reads exp from here
        monkeypatch.setitem(dsl._GLOBALS, "exp", counted)
        reports = [fuzz_invariance(spec, trials=100, seed=seed) for seed in range(4)]
        monkeypatch.undo()
        # y^103 and z^103 taken to linear space for their sum, once each per
        # trial; the relation itself would take x there too
        assert calls[0] == 2 * 100 * 4
        for seed, report in enumerate(reports):
            assert (report.passed, report.inapplicable) == (100, 0)
            assert _fingerprint(fuzz_invariance, spec, 100, seed, 1e-9) == _fingerprint(
                reference_fuzz, spec, 100, seed, 1e-9)

    @pytest.mark.parametrize("text", _SEEDED)
    def test_reports_equal_the_reference(self, text):
        spec = _line_spec(text)
        assert harness._equality_seed_target(spec) and not _is_proven(spec)
        for seed in range(4):
            for tol in (1e-9, 1e-3):
                expected = _fingerprint(reference_fuzz, spec, 150, seed, tol)
                assert _fingerprint(fuzz_invariance, spec, 150, seed, tol) == expected


_INVARIANT_FIXTURES = ("newton", "light_three_var", "electronics", "independent_dims", "mass_spring")
_INVARIANT_SHAPES = ("power_lt", "seeded_eq", "sum_le", "log_sin", "bool_mix")


def _recording_compiled(monkeypatch):
    """The list of (name, source) of each compilation from here on."""
    sources, original = [], core.compile_source

    def compiled(source, name, **names):
        sources.append((name, source))
        return original(source, name, **names)

    for module in (core, dsl, harness):
        monkeypatch.setattr(module, "compile_source", compiled)
    return sources


def _compiling_raises(monkeypatch):
    def compiled(source, name, **names):
        raise AssertionError(f"compiled {name}")

    for module in (core, dsl, harness):
        monkeypatch.setattr(module, "compile_source", compiled)


class TestLoweringOnlyWhenTrialsRun:
    """A relation is typed once per spec, when its plan is made, and
    lowered only where it runs: its trial kernel on the first call that
    draws trials, its run on the first counterexample confirmed. A call on
    a relation that needs no trial compiles nothing and runs nothing of the
    relation; one that runs trials compiles nothing after its first
    counterexample, and the confirmation through `evaluate` reuses the
    plan's compiled relation."""

    @staticmethod
    def _nothing_runs(monkeypatch, spec):
        """Make the spec's plan, then fail on any compilation, any run of
        the plan's compiled relation and any trial kernel."""
        plan = spec.fuzz_plan
        _compiling_raises(monkeypatch)

        def refuse(*args):
            raise AssertionError(f"ran {spec.relation_text}")

        # set in place of what getattr would compile
        for name in ("run", "truth"):
            monkeypatch.setitem(vars(plan.compiled), name, refuse)
        monkeypatch.setitem(vars(plan), "kernel", refuse)

    @staticmethod
    def _compiled_nothing(spec):
        plan = spec.fuzz_plan
        return not {"run", "truth", "leaves"} & set(vars(plan.compiled)) and "kernel" not in vars(plan)

    @pytest.mark.parametrize("name", _INVARIANT_FIXTURES)
    def test_invariant_fixtures_lower_nothing(self, monkeypatch, name):
        spec = _spec(name)
        with monkeypatch.context() as patched:
            self._nothing_runs(patched, spec)
            for seed in (0, 3):
                assert fuzz_invariance(spec, trials=100, seed=seed).passed == 100
        assert self._compiled_nothing(spec)

    @pytest.mark.parametrize("template", _INVARIANT_SHAPES)
    def test_invariant_corpus_shapes_lower_nothing(self, monkeypatch, template):
        rng = random.Random(f"lowering:{template}")
        specs = [_corpus_spec(*corpus_relation(rng, template)) for _ in range(6)]
        for spec in specs:
            with monkeypatch.context() as patched:
                self._nothing_runs(patched, spec)
                assert fuzz_invariance(spec, trials=100, seed=7).passed == 100
            assert self._compiled_nothing(spec)

    @pytest.mark.parametrize("label", ["hidden_constant", "mixed_lt", "unproven"])
    def test_a_call_that_runs_trials_lowers_once(self, monkeypatch, label):
        if label == "unproven":
            spec = _line_spec("x^103 + y^103 < z^103")
            assert not _is_proven(spec)
        elif label == "mixed_lt":
            spec = _corpus_spec(*corpus_relation(random.Random(5), "mixed_lt"))
        else:
            spec = _spec(label)
        sources, confirmations = _recording_compiled(monkeypatch), []
        original_confirmed = harness._confirmed

        def confirmed(*args):
            compiled_before = len(sources)
            confirmations.append(original_confirmed(*args))
            # through evaluate, on the plan's compiled relation: its run,
            # compiled on the first confirmation, and nothing after it
            assert [name for name, _ in sources[compiled_before:]] == ([] if confirmations[1:] else ["run"])
            assert vars(spec.fuzz_plan.compiled)["run"]
            return confirmations[-1]

        monkeypatch.setattr(harness, "_confirmed", confirmed)
        for seed in (0, 1, 2):
            report = fuzz_invariance(spec, trials=100, seed=seed)
            # the kernel, on the first call, and no other lowering
            assert [name for name, _ in sources] == ["kernel"] + ([] if label == "unproven" else ["run"])
            assert (report.counterexample is None) == (label == "unproven")
        assert len(confirmations) == (0 if label == "unproven" else 3)
        assert all(confirmations)


# the fixtures, proven and not, the three shapes that run trials, and one
# corpus spec per invariant shape
_KEPT_LABELS = (*_INVARIANT_FIXTURES, "hidden_constant", "mixed_lt", "unproven", *_INVARIANT_SHAPES)


def _kept_spec(label):
    """A fresh spec for the label: equal on every call, never the same object."""
    if label == "unproven":
        return _line_spec("x^103 + y^103 < z^103")
    if label == "mixed_lt" or label in _INVARIANT_SHAPES:
        return _corpus_spec(*corpus_relation(random.Random(f"kept:{label}"), label))
    return _spec(label)


class TestPlanKeptPerSpec:
    """What `fuzz_invariance` derives from the spec alone (typing, the
    dimension checks, the seeding target, the proof, and the lowering where
    trials run) is worked out on a spec's first call and kept on that spec
    object, so a later call on it redoes none of it."""

    @pytest.mark.parametrize("label", _KEPT_LABELS)
    def test_a_later_call_types_proves_and_lowers_nothing(self, monkeypatch, label):
        spec = _kept_spec(label)
        first = fuzz_invariance(spec, trials=100, seed=0)

        def refuse(name):
            def raising(*args, **kwargs):
                raise AssertionError(f"{name} called again")

            return raising

        with monkeypatch.context() as patched:
            for module, name in ((dsl, "typecheck"), (dsl, "Lowering"), (harness, "Lowering"),
                                 (core, "compile_source"), (dsl, "compile_source"), (harness, "compile_source"),
                                 (harness, "enclose"), (harness, "_equality_seed_target"),
                                 (harness, "compile_relation")):
                patched.setattr(module, name, refuse(name))
            again = [fuzz_invariance(spec, trials=100, seed=seed, tol=tol)
                     for seed, tol in ((0, 1e-9), (5, 1e-9), (5, 1e-6))]
        assert again[0] == first
        fresh = _kept_spec(label)
        assert fresh == spec and "fuzz_plan" not in vars(fresh)
        assert again == [fuzz_invariance(_kept_spec(label), trials=100, seed=seed, tol=tol)
                         for seed, tol in ((0, 1e-9), (5, 1e-9), (5, 1e-6))]

    def test_equal_specs_built_apart_keep_their_own_plans(self):
        a, b = _spec("hidden_constant"), _spec("hidden_constant")
        assert a == b and hash(a) == hash(b)
        report = fuzz_invariance(a, trials=50, seed=1)
        assert "fuzz_plan" in vars(a) and "fuzz_plan" not in vars(b)
        assert fuzz_invariance(b, trials=50, seed=1) == report
        assert a.fuzz_plan is not b.fuzz_plan
        assert a.fuzz_plan.compiled.run is not b.fuzz_plan.compiled.run
        assert a.fuzz_plan.kernel is not b.fuzz_plan.kernel

    @pytest.mark.parametrize("variables,relation,message", [
        ({"x": "L", "t": "T"}, "x + t < x", "relation is ill-typed: '+' needs equal dimensions: L vs T"),
        ({"x": "L", "t": "T"}, "x*t", "relation does not evaluate to a truth value"),
    ])
    def test_an_unfuzzable_spec_raises_the_same_error_on_every_call(self, variables, relation, message):
        spec = dsl.problem_spec_from_dict({"system": ["L", "T"], "variables": variables, "relation": relation})
        for seed in (0, 1, 2):
            with pytest.raises(SpecError) as info:
                fuzz_invariance(spec, trials=10, seed=seed)
            assert str(info.value) == message
            assert "fuzz_plan" not in vars(spec)

    @pytest.mark.parametrize("label", ["hidden_constant", "mixed_lt", "unproven", "newton"])
    def test_a_spec_pickles_after_a_call_and_its_copy_reports_the_same(self, label):
        spec = _kept_spec(label)
        report = fuzz_invariance(spec, trials=200, seed=4)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
        assert "fuzz_plan" not in vars(copy)
        assert fuzz_invariance(copy, trials=200, seed=4) == report
        assert copy.fuzz_plan.compiled.type is dsl.BOOL

    @pytest.mark.parametrize("label", ["hidden_constant", "mixed_lt", "unproven", "seeded_eq"])
    def test_threads_fuzzing_one_fresh_spec_report_as_sequential_calls(self, label):
        seeds = (0, 1, 2, 3)
        expected = [fuzz_invariance(spec, trials=200, seed=seed)
                    for spec in [_kept_spec(label)] for seed in seeds]
        spec, reports = _kept_spec(label), [None] * len(seeds)
        start = threading.Barrier(len(seeds))

        def work(i):
            start.wait(timeout=10)
            reports[i] = fuzz_invariance(spec, trials=200, seed=seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reports == expected


def _renamed(spec):
    """The spec with each variable renamed, its relation text reprinted."""
    new = {name: f"renamed{i}" for i, name in enumerate(spec.variable_names)}
    text = re.sub(r"[A-Za-z_][A-Za-z_0-9]*", lambda m: new.get(m.group(), m.group()), spec.relation_text)
    return dsl.ProblemSpec(spec.system, tuple(new.values()), spec.variable_dims, dsl.parse_relation(text), text)


class TestGeneratedSource:
    """Every source passed to `core.compile_source` (a relation's run and
    sides, a trial kernel) holds no quote character, and a spec whose
    variables are renamed compiles the very same sources: none holds a
    variable name or the relation's text. A plan builds its trial kernel
    once, on the first call that draws trials, whatever the tol, and never
    where it is proven."""

    @staticmethod
    def _specs():
        rng = random.Random(197)
        specs = [_spec(name) for name in (*_INVARIANT_FIXTURES, "hidden_constant")]
        specs += [s for _, s in _stream_specs()]
        for template in CORPUS_TEMPLATES:
            specs += [_corpus_spec(*corpus_relation(rng, template)) for _ in range(3)]
        length, time = DimVector.unit(CORPUS_SYSTEM, "L"), DimVector.unit(CORPUS_SYSTEM, "T")
        for text in (*_PROVEN_USES.values(), "not x^2 < pi*y*z"):
            specs.append(_line_spec(text))
            # the same node kinds in a relation that runs trials
            specs.append(_corpus_spec(f"({text}) and x < w", {"x": length, "y": length, "z": length, "w": time}))
        return specs

    @staticmethod
    def _compiled_sources(monkeypatch, spec):
        with monkeypatch.context() as patched:
            sources = _recording_compiled(patched)
            try:
                fuzz_invariance(spec, trials=50, seed=0)
            except EvaluationError:
                pass
            spec.fuzz_plan.compiled.run
        return [source for _, source in sources]

    def test_no_source_holds_a_string_of_the_spec(self, monkeypatch):
        kernels = 0
        for spec in self._specs():
            sources = self._compiled_sources(monkeypatch, spec)
            assert sources and not any(q in source for source in sources for q in "'\""), spec.relation_text
            assert sources == self._compiled_sources(monkeypatch, _renamed(spec)), spec.relation_text
            kernels += any(source.startswith("def kernel(") for source in sources)
        assert kernels > 30

    @pytest.mark.parametrize("label", ["hidden_constant", "mixed_lt", "unproven", "newton", "seeded_eq"])
    def test_a_plan_builds_its_kernel_once_and_a_proven_one_none(self, monkeypatch, label):
        spec = _kept_spec(label)
        sources = _recording_compiled(monkeypatch)
        calls = ((0, 1e-9), (3, 0.5), (0, 1e-9))
        reports = [fuzz_invariance(spec, trials=100, seed=seed, tol=tol) for seed, tol in calls]
        kernels = [name for name, _ in sources if name == "kernel"]
        assert kernels == ([] if spec.fuzz_plan.proven else ["kernel"])
        assert spec.fuzz_plan.proven == (label in ("newton", "seeded_eq"))
        # the tol a call passes is the kernel's argument, kept by nothing
        assert reports == [fuzz_invariance(_kept_spec(label), trials=100, seed=seed, tol=tol)
                           for seed, tol in calls]


def _deep(kind, levels):
    """A relation over x, y of dimension L and t of T in which one node
    kind nests levels times, beside a mixed comparison, so that trials run."""
    if kind == "not":
        return "not " * levels + "x < t"
    if kind in ("and", "or"):  # right-nested, as parentheses group them
        return f" {kind} (".join(["x < t"] * (levels + 1)) + ")" * levels
    if kind == "*":
        return "*".join(["x"] * (levels + 1)) + " < t"
    if kind == "^":
        return "x" + "^1" * levels + " < t"
    if kind == "sin":
        return "sin(" * levels + "x/y" + ")" * levels + " < t"
    if kind == "sum":  # parenthesised, each sum the left operand of the next
        return "(" * levels + "x" + " + y)" * levels + " < t"
    raise ValueError(kind)


class TestKernelAtTheNestingLimit:
    """Each node kind nested as deeply as `dsl.MAX_NESTING` allows compiles,
    its trial kernel included (no statement nests per node, so neither
    Python's limit on nested blocks nor on nested parentheses is reached),
    reports as the reference does, and `piforge verify` exits by its
    verdict."""

    @pytest.mark.parametrize("kind", ["not", "and", "or", "*", "^", "sin", "sum"])
    def test_each_kind_at_the_limit(self, tmp_path, kind):
        levels = dsl.MAX_NESTING
        while True:  # the most levels that parse
            try:
                dsl.parse_relation(_deep(kind, levels))
                break
            except dsl.ParseError:
                levels -= 1
        assert levels > 90  # an and/or level takes two parser calls, the others one
        with pytest.raises(dsl.ParseError, match="nests more than"):
            dsl.parse_relation(_deep(kind, levels + 1))
        raw = {"system": ["L", "T"], "variables": {"x": "L", "y": "L", "t": "T"}, "relation": _deep(kind, levels)}
        (tmp_path / "spec.json").write_text(json.dumps(raw))
        spec = dsl.load_problem_spec(tmp_path / "spec.json")
        expected = _fingerprint(reference_fuzz, spec, 30, 0, 1e-9)
        assert _fingerprint(fuzz_invariance, spec, 30, 0, 1e-9) == expected
        assert "kernel" in vars(spec.fuzz_plan)
        proc = run_cli("verify", "--spec", str(tmp_path / "spec.json"), "--trials", "30", "--seed", "0")
        assert (proc.returncode, proc.stderr) == (0 if expected[4] is None else 1, b"")
