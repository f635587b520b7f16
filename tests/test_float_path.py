"""The pi-value path on floats: pi_values, equivalent, canonical_rep and
is_consistent combine log magnitudes only, bit for bit as qty_combine does,
and never re-derive the exact dimension of a dimensionless group. A basis's
generated kernels give the reference loops' floats."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from piforge import core
from piforge.core import (
    DimVector,
    Monomial,
    Quantity,
    dimension_matrix,
    format_magnitude,
    qty_combine,
)
from piforge.errors import EvaluationError, InconsistentReferenceError
from piforge.exactlin import kernel_basis
from piforge.harness import Counterexample, InvarianceReport, report_to_dict
from piforge.nondim import (
    EquivalenceVerdict,
    PiValues,
    VerdictReason,
    canonical_rep,
    equivalent,
    pi_values,
    preimage,
)
from piforge.pigroups import PiBasis, pi_basis, special_basis, transition
from piforge.units import is_consistent

from support import (
    LADDER_SIZES,
    ladder_dims,
    mass_spring_dims,
    oracle_equivalent,
    reference_log_combine,
    reference_orbit_gap,
    reference_row_space,
    seeded_systems,
)

SYSTEMS = 200
KERNELS = ("log_values", "orbit_gap", "reader")


def _logs(rng, n):
    return [rng.uniform(-40.0, 40.0) for _ in range(n)]


def _coherent(rng, system, dims):
    """A reference list with every dimensionless product equal to 1 up to
    rounding: slot j is prod_i u_i ^ exponent_ij."""
    units = [rng.uniform(-2.0, 2.0) for _ in system.names]
    return [
        Quantity(sum(float(e) * u for e, u in zip(w.exponents, units)), w) for w in dims
    ]


def _hex(floats):
    return [v.hex() for v in floats]


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

    def test_row_space_and_orbit_gap(self):
        """The projection's dot products sum the same products in the same
        order as the generator form, so every float is the same."""
        rng = random.Random(139)
        problems = list(seeded_systems(SYSTEMS))
        for d, n in LADDER_SIZES:
            system = core.DimSystem(tuple(f"D{i}" for i in range(d)))
            problems += [(system, ladder_dims(rng, d, n)) for _ in range(5)]
        for system, dims in problems:
            reduction = core.reduce_dims(dims)
            rows = core.row_space(reduction)
            assert rows == reference_row_space(reduction)
            along = [q.log_magnitude for q in _coherent(rng, system, dims)]
            for logs in (along, _logs(rng, len(dims))):
                assert core.orbit_gap_kernel(rows, len(logs))(logs) == reference_orbit_gap(rows, logs)

    def test_kernels_match_the_reference_loops(self):
        """Both kernels of canonical and special bases give, as float hex,
        what the term-by-term loop and the generator-form projection give."""
        rng = random.Random(163)
        problems = list(seeded_systems(SYSTEMS))
        for d, n in LADDER_SIZES:
            system = core.DimSystem(tuple(f"D{i}" for i in range(d)))
            problems += [(system, ladder_dims(rng, d, n)) for _ in range(3)]
        for system, dims in problems:
            for basis in (pi_basis(dims), special_basis(dims).base):
                along = [q.log_magnitude for q in _coherent(rng, system, dims)]
                for logs in (along, _logs(rng, len(dims))):
                    expected = [reference_log_combine(g.exponents, logs) for g in basis.groups]
                    assert _hex(basis.log_values(logs)) == _hex(expected)
                    gap = reference_orbit_gap(basis.row_space, logs)
                    assert basis.orbit_gap(logs).hex() == gap.hex()

    def test_builders_and_is_consistent_build_no_kernel(self):
        """The builders and `transition` build neither kernel, and
        `is_consistent`, which closes the shared orbit-gap code over its own
        rows, keeps that closure on no basis."""
        rng = random.Random(167)
        for system, dims in seeded_systems(60):
            basis, sb = pi_basis(dims), special_basis(dims)
            transition(basis, sb.base)
            transition(sb.base, sb.canonical)
            assert is_consistent(_coherent(rng, system, dims)).consistent
            for built in (basis, sb.base, sb.canonical):
                assert not set(KERNELS) & set(vars(built))

    def test_one_orbit_gap_code_object_per_shape(self):
        """Bases of one shape, their number of slots, share their orbit-gap
        code even when built interleaved with other shapes and whatever
        their rank; each closes over its own rows and gives the
        generator-form gap as float hex. A basis of any other shape runs
        other code."""
        rng = random.Random(181)
        bases = []
        for _ in range(3):
            for d, n in ((3, 6), (4, 10), (2, 6), (4, 12)):
                bases.append(pi_basis(ladder_dims(rng, d, n)))
        shapes = [len(b.dims) for b in bases]
        assert len(set(shapes)) == 3
        assert len({len(b.row_space) for b in bases if len(b.dims) == 6}) > 1
        for basis in bases:
            cells = basis.orbit_gap.__closure__
            rows = dict(zip(basis.orbit_gap.__code__.co_freevars, [c.cell_contents for c in cells]))
            assert list(rows) == ["rows"] and rows["rows"] is basis.row_space
            logs = _logs(rng, len(basis.dims))
            gap = reference_orbit_gap(basis.row_space, logs)
            assert basis.orbit_gap(logs).hex() == gap.hex()
        for a, sa in zip(bases, shapes):
            for b, sb in zip(bases, shapes):
                assert (a.orbit_gap.__code__ is b.orbit_gap.__code__) == (sa == sb)
                if sa == sb and a is not b:
                    assert a.orbit_gap is not b.orbit_gap and a.row_space != b.row_space

    def test_is_consistent_reuses_the_code_of_a_basis_of_its_shape(self):
        """Once a basis has built its orbit gap, `is_consistent` on the same
        dimensions runs that shape's code with no new compile, reading it
        twice (`row_space`'s residual and the gap), and its verdict is the
        reference's."""
        rng, seen = random.Random(191), set()
        for d, n in LADDER_SIZES:
            system = core.DimSystem(tuple(f"D{i}" for i in range(d)))
            dims = ladder_dims(rng, d, n)
            pi_basis(dims).orbit_gap
            for clash in (False, True):
                units = _coherent(rng, system, dims)
                if clash:
                    units[0] = Quantity(units[0].log_magnitude + 1.0, dims[0])
                before = core._orbit_gap_maker.cache_info()
                report = is_consistent(units)
                after = core._orbit_gap_maker.cache_info()
                assert (after.misses, after.hits) == (before.misses, before.hits + 2)
                assert report.consistent == _reference_is_consistent(units)[0]
                seen.add(report.consistent)
        assert seen == {True, False}

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


class TestNoDimensionComparePerRecord:
    """Bindings over the basis's own DimVector objects pass every dimension
    check on identity alone, with no DimVector.__eq__ call."""

    @pytest.fixture
    def compares(self, monkeypatch):
        counter = [0]
        original = DimVector.__eq__

        def counted(self, other):
            counter[0] += 1
            return original(self, other)

        monkeypatch.setattr(DimVector, "__eq__", counted)
        return counter

    def test_pi_values_equivalent_canonical_rep(self, compares):
        rng = random.Random(157)
        records = []
        for system, dims in seeded_systems(60):
            basis, sb = pi_basis(dims), special_basis(dims)
            xs = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), basis.dims)]
            shift = [q.log_magnitude for q in _coherent(rng, system, basis.dims)]
            ys = [Quantity(x.log_magnitude + s, x.dim) for x, s in zip(xs, shift)]
            zs = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), basis.dims)]
            records.append((basis, sb, _coherent(rng, system, basis.dims), xs, ys, zs))
        before = compares[0]
        for basis, sb, ref, xs, ys, zs in records:
            pi_values(basis, xs)
            assert equivalent(basis, xs, ys).equivalent
            equivalent(basis, xs, zs)
            canonical_rep(sb, ref, xs)
        assert compares[0] == before
        # the counter is wired: equal copies are compared slot by slot
        basis, _, _, xs, _, _ = records[0]
        copies = [Quantity(x.log_magnitude, DimVector(x.dim.system, x.dim.exponents)) for x in xs]
        pi_values(basis, copies)
        assert compares[0] > before


def _copies(dims):
    """Equal DimVectors that are other objects than dims's."""
    return [DimVector(w.system, w.exponents) for w in dims]


def _stepwise_pi_values(basis, xs):
    """`pi_values` as plain steps, the reference for its reader: `check_dims`,
    then the groups' logs at the list of log magnitudes."""
    core.check_dims(basis.dims, xs, "xs")
    return PiValues(basis.log_values([x.log_magnitude for x in xs]))


def _stepwise_equivalent(basis, xs, ys):
    """`equivalent` as plain steps, the reference for its reader: xs's
    `check_dims`, the DIM_MISMATCH compare of ys, then the log difference
    list."""
    core.check_dims(basis.dims, xs, "xs")
    if tuple(y.dim for y in ys) != basis.dims:
        return EquivalenceVerdict(False, VerdictReason.DIM_MISMATCH)
    delta = [x.log_magnitude - y.log_magnitude for x, y in zip(xs, ys)]
    if basis.r == 0 or basis.orbit_gap(delta) <= core.DEFAULT_TOL:
        return EquivalenceVerdict(True, VerdictReason.EQUIVALENT)
    sizes = [abs(v) for v in basis.log_values(delta)]
    worst = max(range(basis.r), key=sizes.__getitem__)
    return EquivalenceVerdict(False, VerdictReason.PI_MISMATCH, mismatch_index=worst)


def _stepwise_canonical_rep(sb, ref, xs):
    """`canonical_rep` as plain steps, the reference for its reader: xs's
    `check_dims`, its groups' logs at the list of its log magnitudes, then
    `preimage`."""
    core.check_dims(sb.base.dims, xs, "xs")
    return preimage(sb, ref, sb.base.log_values([x.log_magnitude for x in xs]))


def _outcome(call, *args):
    """What a call gives, as plain values: floats as hex, a verdict as its
    three fields, an error as its type and text."""
    try:
        out = call(*args)
    except Exception as exc:  # an error is part of the outcome
        return type(exc).__name__, str(exc)
    if isinstance(out, PiValues):
        return "values", _hex(out.log_values)
    if isinstance(out, EquivalenceVerdict):
        return "verdict", (out.equivalent, out.reason.value, out.mismatch_index)
    return "rep", [(q.log_magnitude.hex(), q.dim) for q in out]


class TestRecordReader:
    """A basis's reader (`core.record_reader`) reads bindings over its own
    DimVector objects in one pass, and hands every other list to
    `check_dims`: equal copies of the dims, a list of the wrong length and a
    list with a wrong slot give `pi_values`, `equivalent` and
    `canonical_rep` the floats, verdicts and error texts of the same calls
    written as plain steps, `check_dims` first."""

    def _variants(self, rng, system, dims):
        """Named binding lists: over the basis's dims, over equal copies,
        rescaled and perturbed, short, long, with a wrong slot, and None,
        which is no list at all."""
        own_logs = _logs(rng, len(dims))
        shift = [q.log_magnitude for q in _coherent(rng, system, dims)]
        moved = [v + s for v, s in zip(own_logs, shift)]
        bumped = list(own_logs)
        bumped[rng.randrange(len(dims))] += 0.5
        slot = rng.randrange(len(dims))
        wrong = list(dims)
        wrong[slot] = dims[slot] * DimVector.unit(system, system.names[0])
        lists = {}
        for over, ws in (("own", dims), ("copies", _copies(dims))):
            for name, logs in (("", own_logs), ("-rescaled", moved), ("-perturbed", bumped)):
                lists[over + name] = [Quantity(v, w) for v, w in zip(logs, ws)]
        own = lists["own"]
        lists.update(short=own[:-1], long=own + own[:1],
                     wrong=[Quantity(x.log_magnitude, w) for x, w in zip(own, wrong)],
                     none=None)
        return lists

    def test_every_branch_gives_the_stepwise_outcome(self):
        rng = random.Random(199)
        problems = list(seeded_systems(60))
        for d, n in LADDER_SIZES:
            system = core.DimSystem(tuple(f"D{i}" for i in range(d)))
            problems += [(system, ladder_dims(rng, d, n)) for _ in range(2)]
        seen = set()
        for system, dims in problems:
            sb = special_basis(dims)
            ref = _coherent(rng, system, sb.base.dims)
            lists = self._variants(rng, system, sb.base.dims)
            for basis in (sb.base, sb.canonical):
                for xs in lists.values():
                    got = _outcome(pi_values, basis, xs)
                    assert got == _outcome(_stepwise_pi_values, basis, xs)
                    seen.add(got[0])
                    for ys in lists.values():
                        got = _outcome(equivalent, basis, xs, ys)
                        assert got == _outcome(_stepwise_equivalent, basis, xs, ys)
                        seen.add(got[1] if got[0] == "verdict" else got[0])
            for xs in lists.values():
                got = _outcome(canonical_rep, sb, ref, xs)
                assert got == _outcome(_stepwise_canonical_rep, sb, ref, xs)
                seen.add(got[0])
        reasons = {v[1] if isinstance(v, tuple) else v for v in seen}
        assert reasons == {"values", "rep", "DimensionMismatchError", "TypeError",
                           "equivalent", "dim-mismatch", "pi-mismatch"}

    def test_only_the_basis_own_dims_take_the_one_pass(self):
        """The identity pass gives a tuple; equal copies reach `check_dims`
        and give a list, with the same floats. `delta` gives None unless
        both lists are over the basis's own dims."""
        rng = random.Random(211)
        for system, dims in seeded_systems(40):
            basis = pi_basis(dims)
            lists = self._variants(rng, system, basis.dims)
            own, copies = lists["own"], lists["copies"]
            logs, delta = basis.reader
            assert type(logs(own, "xs")) is tuple and type(logs(copies, "xs")) is list
            assert list(logs(own, "xs")) == logs(copies, "xs")
            assert delta(own, lists["own-rescaled"]) is not None
            for xs, ys in ((own, copies), (copies, own), (lists["short"], own),
                           (own, lists["long"]), (lists["wrong"], own)):
                assert delta(xs, ys) is None

    def test_a_pickled_basis_drops_its_reader_and_builds_its_own(self):
        """A copy's dims are other objects, so bindings over the original's
        take its `check_dims` branch, and bindings over its own the one
        pass: both give the original's floats."""
        rng = random.Random(223)
        for _, dims in seeded_systems(30):
            basis = pi_basis(dims)
            xs = [Quantity(v, w) for v, w in zip(_logs(rng, len(dims)), basis.dims)]
            values = pi_values(basis, xs)
            assert "reader" in vars(basis)
            copy = pickle.loads(pickle.dumps(basis))
            assert not set(KERNELS) & set(vars(copy))
            assert pi_values(copy, xs) == values
            own = [Quantity(x.log_magnitude, w) for x, w in zip(xs, copy.dims)]
            assert pi_values(copy, own) == values
            assert type(copy.reader[0](own, "xs")) is tuple
            assert copy.reader is not basis.reader
            assert copy.reader[0].__code__ is basis.reader[0].__code__

    def test_one_reader_code_object_per_slot_count(self):
        """The maker compiles once per slot count, never once per basis,
        and its code holds no float: a basis's dims are the closure's data."""
        rng = random.Random(227)
        shapes = ((3, 6), (4, 10), (2, 6), (4, 12))
        before = core._reader_maker.cache_info()
        bases = [pi_basis(ladder_dims(rng, d, n)) for _ in range(3) for d, n in shapes]
        for basis in bases:
            basis.reader
        after = core._reader_maker.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + len(bases)
        assert after.misses - before.misses <= len({n for _, n in shapes})
        again = [pi_basis(ladder_dims(rng, d, n)) for d, n in shapes]
        for basis in again:
            basis.reader
        assert core._reader_maker.cache_info().misses == after.misses
        for a in bases + again:
            cells = dict(zip(a.reader[0].__code__.co_freevars,
                             [c.cell_contents for c in a.reader[0].__closure__]))
            assert cells["dims"] is a.dims
            for b in bases:
                same_code = a.reader[0].__code__ is b.reader[0].__code__
                assert same_code == (len(a.dims) == len(b.dims))
        codes = [core._reader_maker(n).__code__ for n in {n for _, n in shapes}]
        while codes:
            code = codes.pop()
            assert not [c for c in code.co_consts if isinstance(c, (float, DimVector))]
            codes += [c for c in code.co_consts if isinstance(c, type(code))]


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

    def test_an_exponent_beyond_floats_raises_from_the_same_calls(self):
        """Over L^p and L^q, p = 10^400 + 1 and q = 10^400, the ratio q/p in
        the row space is a float, but the canonical group x0^-q * x1^p is
        not, while the special group x0^(-q/p) * x1 is. Each call raises
        EvaluationError exactly where the loops read a group's float
        exponents; an equivalent verdict reads none and builds no
        `log_values`."""
        system = core.DimSystem(("L",))
        q = 10**400
        dims = (DimVector(system, (Fraction(q + 1),)), DimVector(system, (Fraction(q),)))
        basis, sb = pi_basis(dims), special_basis(dims)
        xs = [Quantity(0.0, w) for w in dims]
        ys = [Quantity(1.0, dims[0]), xs[1]]
        message = f"an exponent {core._BEYOND_FLOATS}"
        assert equivalent(basis, xs, xs).equivalent
        assert "log_values" not in vars(basis) and "orbit_gap" in vars(basis)
        for call in (lambda: pi_values(basis, xs), lambda: equivalent(basis, xs, ys)):
            with pytest.raises(EvaluationError) as info:
                call()
            assert str(info.value) == message
        assert "log_values" not in vars(basis)
        assert len(pi_values(sb.base, xs)) == 1
        assert canonical_rep(sb, xs, ys) == [xs[0], Quantity(-float(Fraction(q, q + 1)), dims[1])]
        assert is_consistent(xs).consistent

    def test_a_nan_pi_value_raises_where_it_is_formatted(self):
        """Over L^p and L^q, p = 10^306 + 1 and q = 10^306, at magnitudes
        1e300 the group x0^-q * x1^p has two float exponents, but its two
        terms overflow to -inf and +inf, so its log value is NaN. The
        formatter every printed number goes through raises EvaluationError
        naming the float range, not a ValueError of its own."""
        system = core.DimSystem(("L",))
        q = 10**306
        dims = (DimVector(system, (Fraction(q + 1),)), DimVector(system, (Fraction(q),)))
        xs = [Quantity.from_magnitude(1e300, w) for w in dims]
        (log_pi,) = pi_values(pi_basis(dims), xs).log_values
        assert math.isnan(log_pi)
        with pytest.raises(EvaluationError) as info:
            format_magnitude(log_pi)
        assert str(info.value) == f"a term of a magnitude {core._BEYOND_FLOATS}"

    @pytest.mark.parametrize("call", ["is_consistent", "pi_values", "equivalent", "canonical_rep"])
    def test_a_ratio_beyond_floats_raises_from_every_float_call(self, call):
        """Over L and L^(10^400) both the row space's ratio and every
        group's exponent leave the float range: each call the README's
        float-path paragraph names raises EvaluationError."""
        system = core.DimSystem(("L",))
        dims = (DimVector.unit(system, "L"), DimVector(system, (Fraction(10**400),)))
        xs = [Quantity(0.0, w) for w in dims]
        calls = {
            "is_consistent": lambda: is_consistent(xs),
            "pi_values": lambda: pi_values(pi_basis(dims), xs),
            "equivalent": lambda: equivalent(pi_basis(dims), xs, xs),
            "canonical_rep": lambda: canonical_rep(special_basis(dims), xs, xs),
        }
        with pytest.raises(EvaluationError, match="float range"):
            calls[call]()
