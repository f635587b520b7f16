"""The pi-value path on floats: pi_values, equivalent, canonical_rep and
is_consistent combine log magnitudes only, bit for bit as qty_combine does,
and never re-derive the exact dimension of a dimensionless group."""

import math
import random

import pytest

from piforge import core
from piforge.core import Monomial, Quantity, dimension_matrix, format_magnitude, qty_combine
from piforge.errors import InconsistentReferenceError
from piforge.exactlin import kernel_basis
from piforge.harness import Counterexample, InvarianceReport, report_to_dict
from piforge.nondim import canonical_rep, equivalent, pi_values
from piforge.pigroups import PiBasis, pi_basis, special_basis
from piforge.units import is_consistent

from support import mass_spring_dims, oracle_equivalent, reference_log_combine, seeded_systems

SYSTEMS = 200


def _logs(rng, n):
    return [rng.uniform(-40.0, 40.0) for _ in range(n)]


def _coherent(rng, system, dims):
    """A reference list with every dimensionless product equal to 1 up to
    rounding: slot j is prod_i u_i ^ exponent_ij."""
    units = [rng.uniform(-2.0, 2.0) for _ in system.names]
    return [
        Quantity(sum(float(e) * u for e, u in zip(w.exponents, units)), w) for w in dims
    ]


def _expected(group, xs):
    """The exact path's log magnitude, checked against the term-by-term float
    loop so that the reference does not rest on the code under test alone."""
    log = qty_combine(group, xs).log_magnitude
    assert log == reference_log_combine(group.exponents, [x.log_magnitude for x in xs])
    return log


def _reference_is_consistent(units):
    """(verdict, combo, log clash factor): the verdict from the oracle's row
    space test (`reference_rref` and Gram-Schmidt) on the units' logs, the
    witness the kernel vector whose product has the largest |log|."""
    origin = [Quantity(0.0, u.dim) for u in units]
    if oracle_equivalent(origin, units):
        return True, None, None
    matrix = dimension_matrix(units[0].dim.system, [u.dim for u in units])
    combo = max(map(Monomial, kernel_basis(matrix)), key=lambda c: abs(_expected(c, units)))
    return False, combo, _expected(combo, units)


class TestBitForBit:
    def test_log_combine_matches_the_term_by_term_loop(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(0, 12)
            group = Monomial.of(*(rng.choice((0, 0, 1, -2, "1/3", "-5/2")) for _ in range(n)))
            logs = _logs(rng, n)
            assert group.log_combine(logs) == reference_log_combine(group.exponents, logs)

    def test_pi_values(self):
        rng = random.Random(103)
        for _, dims in seeded_systems(SYSTEMS):
            basis = pi_basis(dims)
            xs = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), dims)]
            got = pi_values(basis, xs).log_values
            assert got == tuple(_expected(g, xs) for g in basis.groups)

    def test_canonical_rep(self):
        rng = random.Random(107)
        for system, dims in seeded_systems(SYSTEMS):
            sb = special_basis(dims)
            ref = _coherent(rng, system, dims)
            xs = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), dims)]
            expected = list(ref)
            for group, free in zip(sb.base.groups, sb.free_indices):
                shifted = _expected(group, xs) - _expected(group, ref) + ref[free].log_magnitude
                expected[free] = Quantity(shifted, dims[free])
            assert canonical_rep(sb, ref, xs) == expected

    @pytest.mark.parametrize("clash", [False, True], ids=["consistent", "inconsistent"])
    def test_is_consistent(self, clash):
        rng = random.Random(109 + clash)
        seen = set()
        for system, dims in seeded_systems(SYSTEMS):
            units = _coherent(rng, system, dims)
            if clash:
                slot = rng.randrange(len(units))
                units[slot] = Quantity(units[slot].log_magnitude + rng.uniform(0.1, 3.0), dims[slot])
            verdict, combo, log = _reference_is_consistent(units)
            report = is_consistent(units)
            assert report.consistent == verdict
            if not verdict:
                assert report.witness.combo == combo
                assert report.witness.log_clash_factor == log
            seen.add(verdict)
        assert seen == ({True} if not clash else {True, False})


class TestNoExactDimensionPerRecord:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count core.dim_combine calls at every module attribute bound to it."""
        import piforge

        counter = [0]
        original = core.dim_combine

        def counted(*args, **kwargs):
            counter[0] += 1
            return original(*args, **kwargs)

        for module in vars(piforge).values():
            if getattr(module, "dim_combine", None) is original:
                monkeypatch.setattr(module, "dim_combine", counted)
        return counter

    def test_pi_values_equivalent_canonical_rep(self, calls):
        rng = random.Random(113)
        records = []
        for system, dims in seeded_systems(60):
            xs = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), dims)]
            ys = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), dims)]
            records.append((pi_basis(dims), special_basis(dims), _coherent(rng, system, dims), xs, ys))
        assert calls[0] == 0
        # the counter is wired: the public constructor checks every group
        basis = records[0][0]
        PiBasis(dims=basis.dims, groups=basis.groups)
        built = calls[0]
        assert built > 0
        for basis, sb, ref, xs, ys in records:
            pi_values(basis, xs)
            equivalent(basis, xs, ys)
            canonical_rep(sb, ref, xs)
        assert calls[0] == built

    def test_inconsistent_reference_message(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        sb = special_basis(tuple(u.dim for u in units))
        verdict, _, log = _reference_is_consistent(units)
        assert not verdict
        message = f"reference list clashes by factor {format_magnitude(log)}"
        with pytest.raises(InconsistentReferenceError) as info:
            canonical_rep(sb, units, units)
        assert str(info.value) == message
        assert message == "reference list clashes by factor 185200"


class TestBeyondFloatRange:
    def test_pi_values_as_floats(self):
        _, dims = mass_spring_dims()
        basis = pi_basis(dims)
        wide = [Quantity(math.log(v), w) for v, w in zip((1e-300, 1e300, 3.0), dims)]
        narrow = [Quantity(math.log(v), w) for v, w in zip((1e300, 1e-300, 3.0), dims)]
        assert pi_values(basis, wide).values == (math.inf,)
        assert pi_values(basis, narrow).values == (0.0,)

    def test_counterexample_binding_printed_from_its_log(self):
        ce = Counterexample(
            trial_index=4,
            log_bindings={"x": 2.0, "y": 600 * math.log(10), "z": -600 * math.log(10)},
            factors={"L": 2.0},
            before=True,
            after=False,
        )
        assert ce.bindings == {"x": math.exp(2.0), "y": math.inf, "z": 0.0}
        payload = report_to_dict(InvarianceReport(trials=5, passed=4, seed=0, counterexample=ce))
        assert payload["counterexample"]["bindings"] == {
            "x": format(math.exp(2.0), ".15g"), "y": "1e+600", "z": "1e-600",
        }
