import math
import random
from fractions import Fraction

import pytest

from piforge import core
from piforge.core import (
    DimSystem,
    DimVector,
    Monomial,
    Quantity,
    dimension_matrix,
    format_magnitude,
    qty_combine,
)
from piforge.errors import (
    DependentBaseError,
    EmptyListError,
    InconsistentUnitsError,
    NoSolutionError,
    SystemMismatchError,
)
from piforge.exactlin import QMatrix
from piforge.units import UnitRegistry, express, fundamental_basis, is_consistent

from support import brute_force_integer_kernel, random_dims


def electronics(registry):
    return [registry.quantity(n) for n in ("V", "A", "ohm", "s", "F")]


class TestIsConsistent:
    def test_electronics_list_is_consistent(self, registry):
        report = is_consistent(electronics(registry))
        assert report.consistent
        assert report.witness is None

    def test_cm_hr_knot_clash(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        report = is_consistent(units)
        assert not report.consistent
        witness = report.witness
        assert witness.combo.exponents == (Fraction(-1), Fraction(1), Fraction(1))
        assert witness.clash_factor == pytest.approx(185200.0, rel=1e-6)

    def test_single_unit_is_consistent(self, registry):
        assert is_consistent([registry.quantity("kg")]).consistent

    def test_one_unit_per_fundamental_is_consistent(self, registry):
        units = [registry.quantity(n) for n in ("kg", "ft", "min")]
        assert is_consistent(units).consistent

    def test_full_rank_list_builds_no_row_space(self, registry):
        """Rank = number of units decides consistency: no row space, so no
        orbit-gap code is read or compiled."""
        units = [registry.quantity(n) for n in ("kg", "ft", "min", "A")]
        before = core._orbit_gap_maker.cache_info()
        assert is_consistent(units).consistent
        assert core._orbit_gap_maker.cache_info() == before

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyListError):
            is_consistent([])

    def test_witness_maps_dims_to_zero_but_magnitudes_off_one(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        report = is_consistent(units)
        combined = qty_combine(report.witness.combo, units)
        assert combined.dim.is_zero()
        assert math.exp(combined.log_magnitude) == pytest.approx(
            report.witness.clash_factor, rel=1e-12
        )

    def test_agrees_with_brute_force_oracle(self):
        # small instances whose kernel generators fit the enumeration box
        rng = random.Random(47)
        instances = 0
        while instances < 80:
            system, dims = random_dims(rng, max_n=4, max_d=3, lo=-1, hi=1)
            matrix = dimension_matrix(system, dims)
            from piforge.exactlin import kernel_basis

            basis = kernel_basis(matrix)
            if any(abs(v) > 2 for vec in basis for v in vec):
                continue
            instances += 1
            clash = rng.random() < 0.5 and len(basis) > 0
            units = _units_for(rng, system, dims, clash=clash)
            verdict = is_consistent(units).consistent
            oracle = _oracle_consistent(matrix, units)
            assert verdict == oracle, (dims, clash)

    def test_span_of_independent_dims_always_passes(self):
        # the "if" direction: anything inside such a span is consistent
        rng = random.Random(53)
        for _ in range(500):
            d = rng.randint(1, 4)
            system = DimSystem(tuple(f"D{i}" for i in range(d)))
            base = [
                Quantity(rng.uniform(-3, 3), DimVector.unit(system, name))
                for name in system.names
            ]
            n = rng.randint(1, 6)
            units = []
            for _ in range(n):
                combo = Monomial(tuple(Fraction(rng.randint(-2, 2)) for _ in base))
                units.append(qty_combine(combo, base))
            assert is_consistent(units).consistent


class TestClashBeyondFloatRange:
    """A clash factor outside the float range stays exact in log space."""

    @pytest.fixture
    def wide(self):
        return UnitRegistry.from_dict({
            "system": ["L"],
            "units": {
                "a": {"magnitude": "1e-200", "dim": "L"},
                "b": {"magnitude": "1e200", "dim": "L"},
            },
        })

    @pytest.mark.parametrize("names,sign,text", [(("a", "b"), 1, "1e+400"), (("b", "a"), -1, "1e-400")])
    def test_witness_keeps_the_log(self, wide, names, sign, text):
        report = is_consistent([wide.quantity(n) for n in names])
        assert not report.consistent
        witness = report.witness
        assert witness.combo.exponents == (Fraction(-1), Fraction(1))
        assert witness.log_clash_factor == pytest.approx(sign * 400 * math.log(10), rel=1e-12)
        assert witness.clash_factor == (math.inf if sign > 0 else 0.0)
        assert format_magnitude(witness.log_clash_factor) == text

    def test_express_mismatch_beyond_float_range_is_no_solution(self, wide):
        with pytest.raises(NoSolutionError, match=r"1e\+400"):
            express([wide.quantity("b")], [wide.quantity("a")])

    def test_fundamental_basis_error_names_the_factor(self, wide):
        with pytest.raises(InconsistentUnitsError, match=r"1e\+400"):
            fundamental_basis([wide.quantity("a"), wide.quantity("b")])

    def test_format_matches_float_format_in_range(self):
        rng = random.Random(59)
        for _ in range(500):
            log = rng.uniform(-700, 700)
            assert format_magnitude(log) == format(math.exp(log), ".15g")

    @pytest.mark.parametrize("log,text", [
        (1e300, "10^4.34294481903252e+299"),
        (-1e300, "10^-4.34294481903252e+299"),
        (1e15 * math.log(10), "10^1e+15"),
        (-1e15 * math.log(10), "10^-1e+15"),
        (math.nextafter(1e15 * math.log(10), 0), "7.49894209332456e+999999999999999"),
        (921 * math.log(10), "1e+921"),
    ])
    def test_exponent_prints_itself_past_1e15(self, log, text):
        """Past a base-10 exponent of 1e15 a float log holds less than one
        digit of the mantissa, so the exponent prints with 15 significant
        digits; below it the mantissa-exponent form stays."""
        assert format_magnitude(log) == text

    def test_mantissa_stays_below_10_next_to_powers_of_ten(self):
        """Outside the normal float range |log10| > 307, where neighbouring
        floats lie at least 2^-44 apart, so the 15-digit mantissa never
        rounds up to 10: checked on the 200 floats on either side of k*ln 10
        for each k here, 21,600 values."""
        far = [s * k for k in (400, 1000, 10**6, 10**14) for s in (1, -1)]
        ks = [*range(-330, -306), *range(308, 330), *far]
        walked = 0
        for k in ks:
            for direction in (math.inf, -math.inf):
                log = k * math.log(10)
                for _ in range(200):
                    log = math.nextafter(log, direction)
                    mantissa = format_magnitude(log).partition("e")[0]
                    assert 1 <= float(mantissa) < 10, (k, log)
                    walked += 1
        assert walked == 21_600


class TestNanTolerance:
    """A NaN tol makes every comparison false; it is refused, not obeyed."""

    def test_is_consistent(self, registry):
        with pytest.raises(ValueError, match="tol must be a number"):
            is_consistent(electronics(registry), tol=math.nan)

    def test_express(self, registry):
        with pytest.raises(ValueError, match="tol must be a number"):
            express([registry.quantity("V")], [registry.quantity("V")], tol=math.nan)

    def test_other_tolerances_are_kept(self, registry):
        clash = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        assert is_consistent(clash, tol=math.inf).consistent
        for tol in (1e-300, 0.0):
            assert not is_consistent(clash, tol=tol).consistent

    def test_negative_tol_is_refused(self, registry):
        """No gap is below a negative tol, so every list would clash."""
        with pytest.raises(ValueError, match="tol must be at least 0, got -1.0"):
            is_consistent(electronics(registry), tol=-1.0)


def _units_for(rng, system, dims, clash: bool):
    """Quantities with the given dims; consistent by construction unless clash."""
    base_logs = [rng.uniform(-2, 2) for _ in system.names]
    units = []
    for dim in dims:
        log_mag = sum(float(e) * b for e, b in zip(dim.exponents, base_logs))
        units.append(Quantity(log_mag, dim))
    if clash:
        slot = rng.randrange(len(units))
        bump = rng.choice([math.log(2), math.log(5), -math.log(3)])
        units[slot] = Quantity(units[slot].log_magnitude + bump, units[slot].dim)
        # bumping a slot no kernel vector touches cannot create a clash
        from piforge.exactlin import kernel_basis

        matrix = dimension_matrix(system, dims)
        if all(vec[slot] == 0 for vec in kernel_basis(matrix)):
            return _units_for(rng, system, dims, clash=False)
    return units


def _oracle_consistent(matrix, units, bound=2, tol=1e-9):
    for vec in brute_force_integer_kernel(matrix, bound):
        log_product = sum(c * u.log_magnitude for c, u in zip(vec, units))
        if abs(log_product) > tol:
            return False
    return True


class TestFundamentalBasis:
    def test_electronics_basis_is_v_a_s(self, registry):
        basis = fundamental_basis(electronics(registry))
        expected = [registry.quantity(n) for n in ("V", "A", "s")]
        assert basis == expected

    def test_single_unit(self, registry):
        u = registry.quantity("kg")
        assert fundamental_basis([u]) == [u]

    def test_powers_of_one_unit_collapse(self, registry):
        kg = registry.quantity("kg")
        assert fundamental_basis([kg, kg * kg]) == [kg]

    def test_inconsistent_input_rejected(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        with pytest.raises(InconsistentUnitsError):
            fundamental_basis(units)

    def test_every_input_reachable_from_basis(self, registry):
        units = electronics(registry)
        basis = fundamental_basis(units)
        combos = express(basis, units)
        for combo, unit in zip(combos, units):
            rebuilt = qty_combine(combo, basis)
            assert rebuilt.dim == unit.dim
            assert rebuilt.log_magnitude == pytest.approx(unit.log_magnitude, abs=1e-9)


class TestExpress:
    def test_ohm_from_v_a_s(self, registry):
        base = [registry.quantity(n) for n in ("V", "A", "s")]
        combos = express(base, [registry.quantity("ohm")])
        assert combos[0].exponents == (Fraction(1), Fraction(-1), Fraction(0))

    def test_base_expressed_in_itself(self, registry):
        base = [registry.quantity(n) for n in ("V", "A", "s")]
        combos = express(base, base)
        for i, combo in enumerate(combos):
            assert combo == Monomial.projection(i, 3)

    def test_disjoint_spans(self, registry):
        with pytest.raises(NoSolutionError):
            express([registry.quantity("kg")], [registry.quantity("m")])

    def test_dependent_base_rejected(self, registry):
        kg = registry.quantity("kg")
        with pytest.raises(DependentBaseError):
            express([kg, kg * kg], [kg])

    @pytest.mark.parametrize("names", [("X", "Y", "Z"), ("X", "Y", "Z", "W")])
    def test_target_over_another_system_is_rejected(self, names):
        """Not read as a target over the base's system, whatever the sizes."""
        mlt = DimSystem(("M", "L", "T"))
        base = [Quantity(0.0, DimVector.unit(mlt, n)) for n in mlt.names]
        target = Quantity(0.0, DimVector.unit(DimSystem(names), "X"))
        with pytest.raises(SystemMismatchError, match="not over"):
            express(base, [target])

    def test_magnitude_clash_is_no_solution(self, registry):
        # dimension solvable, but cm is not reachable from m by any combination
        with pytest.raises(NoSolutionError):
            express([registry.quantity("m")], [registry.quantity("cm")])

    def test_out_of_span_message_names_the_target(self, registry):
        base = [registry.quantity(n) for n in ("V", "A", "s")]
        targets = [registry.quantity(n) for n in ("ohm", "kg", "F")]
        with pytest.raises(NoSolutionError, match=r"target dimension M\b.* outside the span"):
            express(base, targets)

    def test_a_list_is_its_targets_one_by_one(self, registry):
        """Same coefficients as one call per target; a list with bad targets
        raises what its first bad target raises alone."""
        rng = random.Random(67)
        base = [registry.quantity(n) for n in ("m", "s")]
        other = Quantity(0.0, DimVector.unit(DimSystem(("X",)), "X"))
        pool = [registry.quantity(n) for n in ("knot", "m", "s", "kg", "cm", "hr")]
        for _ in range(300):
            targets = rng.sample(pool + [other], rng.randint(1, 5))
            singles = []
            for t in targets:
                try:
                    singles.append(express(base, [t])[0])
                except (NoSolutionError, SystemMismatchError) as exc:
                    singles.append(exc)
            first_bad = next((s for s in singles if isinstance(s, Exception)), None)
            if first_bad is None:
                assert express(base, targets) == singles
            else:
                with pytest.raises(type(first_bad)) as info:
                    express(base, targets)
                assert str(info.value) == str(first_bad)

    def test_unique_coordinates_match_substitution_solver(self, registry):
        # two independent solve paths must agree exactly on the coefficients
        rng = random.Random(59)
        base = [registry.quantity(n) for n in ("V", "A", "s")]
        matrix = dimension_matrix(registry.system, [u.dim for u in base])
        for _ in range(100):
            combo = Monomial(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in base))
            target = qty_combine(combo, base)
            via_rref = express(base, [target])[0]
            via_subst = _substitution_solve(matrix, target.dim.exponents)
            assert via_rref.exponents == via_subst
            assert via_rref.exponents == combo.exponents


def _substitution_solve(matrix: QMatrix, b):
    """Forward elimination + back substitution, independent of exactlin.rref."""
    rows = [list(matrix.row(i)) + [bi] for i, bi in zip(range(matrix.rows), b)]
    n = matrix.cols
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [a - factor * p for a, p in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, len(rows)):
        assert rows[i][n] == 0, "inconsistent system in substitution oracle"
    x = [Fraction(0)] * n
    for row_idx, col in reversed(pivots):
        acc = rows[row_idx][n]
        for c2 in range(col + 1, n):
            acc -= rows[row_idx][c2] * x[c2]
        x[col] = acc / rows[row_idx][col]
    return tuple(x)


class TestRegistry:
    def test_load_and_lookup(self, registry):
        assert registry.system.names == ("M", "L", "T", "I")
        knot = registry.quantity("knot")
        assert knot.magnitude == pytest.approx(1852 / 3600, rel=1e-12)

    def test_unknown_unit(self, registry):
        from piforge.errors import UnknownUnitError

        with pytest.raises(UnknownUnitError):
            registry.quantity("furlong")

    def test_rejects_malformed(self, tmp_path):
        from piforge.errors import ParseError

        bad = tmp_path / "reg.json"
        bad.write_text('{"system": ["M"], "units": {"u": {"magnitude": "-1", "dim": "M"}}}')
        with pytest.raises(ParseError):
            UnitRegistry.load(bad)

    @pytest.mark.parametrize(
        "unit",
        [
            {"magnitude": "abc", "dim": "M"},
            {"dim": "M"},
            {"magnitude": "nan", "dim": "M"},
            {"magnitude": "inf", "dim": "M"},
            {"magnitude": True, "dim": "M"},
            {"magnitude": 10**400, "dim": "M"},
            # outside the decimal grammar of a relation's constants
            {"magnitude": "1_000", "dim": "M"},
            {"magnitude": " 12\n", "dim": "M"},
            {"magnitude": ".5", "dim": "M"},
            {"magnitude": "5.", "dim": "M"},
            {"magnitude": "+5", "dim": "M"},
            {"magnitude": "١٢", "dim": "M"},
        ],
        ids=["not-a-number", "missing", "nan", "inf", "boolean", "int-beyond-floats",
             "underscore", "whitespace", "no-integer-part", "no-fraction-digits", "plus-sign",
             "arabic-indic-digits"],
    )
    def test_bad_magnitude_is_parse_error(self, unit):
        from piforge.errors import ParseError

        with pytest.raises(ParseError, match="'u'"):
            UnitRegistry.from_dict({"system": ["M"], "units": {"u": unit}})

    @pytest.mark.parametrize(
        "raw,match",
        [
            ({"system": ["L"], "units": {"m": {"magnitude": 1}}}, "unit 'm' needs a 'dim' string"),
            ({"system": ["L"], "units": {"m": {"magnitude": 1, "dim": 1}}}, "unit 'm' needs a 'dim' string"),
            ({"system": ["L"], "units": {"m": 1}}, "unit 'm' must be an object"),
            ({"system": ["L"], "units": ["m"]}, "'units' must be an object"),
            ({"system": "MLT", "units": {}}, "bad system"),
            (["system", "units"], "expected a JSON object"),
            ({"system": ["L"], "units": {"m": {"magnitude": 1, "dim": "L^"}}},
             "unit 'm': expected an integer exponent, got ''"),
            ({"system": ["L"], "units": {"m": {"magnitude": 1, "dim": "T"}}},
             "unit 'm': unknown fundamental 'T'"),
        ],
        ids=["dim-missing", "dim-not-a-string", "unit-not-an-object", "units-not-an-object",
             "system-a-string", "not-an-object", "dim-malformed", "dim-unknown-fundamental"],
    )
    def test_malformed_registry_names_registry_and_unit(self, raw, match):
        from piforge.errors import ParseError

        with pytest.raises(ParseError, match=f"^registry reg.json: .*{match}"):
            UnitRegistry.from_dict(raw, source="reg.json")

    def test_unknown_fundamental_in_a_registry_keeps_its_class(self):
        from piforge.errors import UnknownFundamentalError

        raw = {"system": ["L"], "units": {"m": {"magnitude": 1, "dim": "L*T"}}}
        with pytest.raises(UnknownFundamentalError, match="^registry reg.json: unit 'm': "):
            UnitRegistry.from_dict(raw, source="reg.json")
