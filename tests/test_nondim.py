import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from piforge import units
from piforge.core import DimSystem, DimVector, Quantity, coordinate, format_magnitude
from piforge.errors import (
    DimensionMismatchError,
    EvaluationError,
    InconsistentReferenceError,
    InconsistentUnitsError,
)
from piforge.harness import Rescaling, rescale
from piforge.nondim import (
    EquivalenceVerdict,
    VerdictReason,
    canonical_rep,
    equivalent,
    nondimensionalize,
    pi_values,
    preimage,
    strip_units,
)
from piforge.pigroups import PiBasis, pi_basis, special_basis

from support import (
    apply_change_of_basis,
    mass_spring_dims,
    random_dims,
    random_invertible,
    random_quantities,
    reference_log_combine,
    seeded_systems,
)


@pytest.fixture
def spring():
    system, dims = mass_spring_dims()
    basis = pi_basis(dims)
    xs = [
        Quantity.from_magnitude(2.0, dims[0]),
        Quantity.from_magnitude(8.0, dims[1]),
        Quantity.from_magnitude(3.0, dims[2]),
    ]
    ref = [Quantity(0.0, dim) for dim in dims]
    return system, dims, basis, xs, ref


class TestPiValues:
    def test_mass_spring_value(self, spring):
        _, _, basis, xs, _ = spring
        values = pi_values(basis, xs)
        assert values.values[0] == pytest.approx(36.0, rel=1e-12)

    def test_coherent_ones(self, spring):
        system, dims, basis, _, ref = spring
        assert pi_values(basis, ref).values == (1.0,)

    def test_empty_for_determined_dims(self):
        system = DimSystem(("M", "L"))
        dims = (DimVector.unit(system, "M"), DimVector.unit(system, "L"))
        basis = pi_basis(dims)
        xs = [Quantity(1.0, d) for d in dims]
        assert len(pi_values(basis, xs)) == 0

    def test_dim_mismatch_is_an_error(self, spring):
        _, dims, basis, xs, _ = spring
        wrong = [xs[1], xs[0], xs[2]]
        with pytest.raises(DimensionMismatchError):
            pi_values(basis, wrong)


class TestStripUnits:
    def test_units_against_themselves(self, spring):
        _, _, _, _, ref = spring
        assert strip_units(ref, ref) == pytest.approx([1.0, 1.0, 1.0])

    def test_si_coordinates(self, spring):
        _, _, _, xs, ref = spring
        assert strip_units(ref, xs) == pytest.approx([2.0, 8.0, 3.0])

    def test_rescaled_units_rescale_coordinates(self, spring):
        system, dims, _, xs, ref = spring
        rng = random.Random(83)
        factors = Rescaling(system, tuple(rng.uniform(-2, 2) for _ in system.names))
        new_ref = rescale(ref, factors)
        old = strip_units(ref, xs)
        new = strip_units(new_ref, xs)
        for i, dim in enumerate(dims):
            effect = math.exp(
                sum(float(e) * f for e, f in zip(dim.exponents, factors.log_factors))
            )
            assert new[i] == pytest.approx(old[i] / effect, rel=1e-12)

    def test_inconsistent_units_rejected(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        xs = [u for u in units]
        with pytest.raises(InconsistentUnitsError):
            strip_units(units, xs)

    def test_alpha_round_trip(self):
        # embed coordinates against s, then strip them off again
        rng = random.Random(89)
        for _ in range(100):
            system, dims = random_dims(rng, max_n=5, max_d=3)
            s = _consistent_list(rng, system, dims)
            coords = [rng.uniform(0.1, 10.0) for _ in dims]
            xs = [
                Quantity(math.log(v) + u.log_magnitude, u.dim)
                for v, u in zip(coords, s)
            ]
            assert strip_units(s, xs) == pytest.approx(coords, rel=1e-12)

    def test_float_identical_to_coordinate(self):
        """exp of the log difference, as `core.coordinate` gives it, slot for
        slot, over the basis dimensions and over equal copies of them."""
        rng = random.Random(97)
        for system, dims in seeded_systems(200):
            s = _consistent_list(rng, system, dims)
            for ws in (dims, [_copy(w) for w in dims]):
                xs = random_quantities(rng, ws)
                expected = [coordinate(x, u).hex() for u, x in zip(s, xs)]
                assert [v.hex() for v in strip_units(s, xs)] == expected


def _consistent_list(rng, system, dims):
    base_logs = [rng.uniform(-2, 2) for _ in system.names]
    return [
        Quantity(sum(float(e) * b for e, b in zip(d.exponents, base_logs)), d)
        for d in dims
    ]


class TestEquivalent:
    def test_reflexive(self, spring):
        _, _, basis, xs, _ = spring
        verdict = equivalent(basis, xs, xs)
        assert verdict.equivalent
        assert verdict.reason is VerdictReason.EQUIVALENT

    def test_rescaled_tuples_are_equivalent(self, spring):
        system, _, basis, xs, _ = spring
        rng = random.Random(97)
        for _ in range(50):
            factors = Rescaling(system, tuple(rng.uniform(-4, 4) for _ in system.names))
            assert equivalent(basis, xs, rescale(xs, factors)).equivalent

    def test_pi_mismatch_reports_group_index(self, spring):
        _, dims, basis, xs, _ = spring
        ys = list(xs)
        ys[2] = Quantity.from_magnitude(5.0, dims[2])
        verdict = equivalent(basis, xs, ys)
        assert not verdict.equivalent
        assert verdict.reason is VerdictReason.PI_MISMATCH
        assert verdict.mismatch_index == 0

    def test_dim_mismatch_is_a_verdict(self, spring):
        _, dims, basis, xs, _ = spring
        ys = [xs[0], xs[1], Quantity(0.0, dims[0])]
        verdict = equivalent(basis, xs, ys)
        assert not verdict.equivalent
        assert verdict.reason is VerdictReason.DIM_MISMATCH

    def test_equivalence_relation_properties(self):
        rng = random.Random(101)
        done = 0
        while done < 60:
            system, dims = random_dims(rng, max_n=6, max_d=3)
            basis = pi_basis(dims)
            if basis.r == 0:
                continue
            xs = random_quantities(rng, dims)
            f1 = Rescaling(system, tuple(rng.uniform(-2, 2) for _ in system.names))
            f2 = Rescaling(system, tuple(rng.uniform(-2, 2) for _ in system.names))
            ys = rescale(xs, f1)
            zs = rescale(ys, f2)
            assert equivalent(basis, xs, xs).equivalent
            assert equivalent(basis, xs, ys).equivalent == equivalent(basis, ys, xs).equivalent
            if equivalent(basis, xs, ys).equivalent and equivalent(basis, ys, zs).equivalent:
                assert equivalent(basis, xs, zs).equivalent
            done += 1

    def test_verdicts_are_basis_independent(self):
        rng = random.Random(103)
        done = 0
        while done < 60:
            system, dims = random_dims(rng, max_n=6, max_d=3)
            base = pi_basis(dims)
            if base.r == 0:
                continue
            other = PiBasis(
                dims=dims,
                groups=apply_change_of_basis(random_invertible(rng, base.r), base.groups),
            )
            xs = random_quantities(rng, dims)
            if rng.random() < 0.5:
                factors = Rescaling(system, tuple(rng.uniform(-2, 2) for _ in system.names))
                ys = rescale(xs, factors)
            else:
                ys = random_quantities(rng, dims)
            assert (
                equivalent(base, xs, ys).equivalent
                == equivalent(other, xs, ys).equivalent
            )
            done += 1

    def test_exact_rational_log_ratio_oracle(self):
        # build log-ratio vectors from exact rationals, decide membership in
        # the dimension-matrix row space with exactlin.solve, and demand the
        # float verdict match the exact decision every time
        from piforge.core import dimension_matrix
        from piforge.errors import NoSolutionError
        from piforge.exactlin import solve

        rng = random.Random(211)
        done = 0
        while done < 80:
            system, dims = random_dims(rng, max_n=6, max_d=3)
            basis = pi_basis(dims)
            if basis.r == 0:
                continue
            slots = [
                i
                for i in range(len(dims))
                if any(g.exponents[i] != 0 for g in basis.groups)
            ]
            if not slots:
                continue
            matrix = dimension_matrix(system, dims)
            transposed = matrix.transpose()
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in system.names]
            inside = transposed.mul_vec(coeffs)
            outside = list(inside)
            outside[rng.choice(slots)] += Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 4)

            xs = random_quantities(rng, dims)
            for delta, expect_member in ((inside, True), (outside, False)):
                try:
                    solve(transposed, delta)
                    member = True
                except NoSolutionError:
                    member = False
                assert member == expect_member
                ys = [
                    Quantity(x.log_magnitude + float(d), x.dim)
                    for x, d in zip(xs, delta)
                ]
                assert equivalent(basis, xs, ys).equivalent == expect_member
            done += 1

    def test_log_ratio_row_space_oracle(self):
        # xs ~ ys iff the log-ratio vector lies in the dimension matrix row
        # space; build cases exactly in (and exactly off) the row space.
        rng = random.Random(107)
        done = 0
        while done < 60:
            system, dims = random_dims(rng, max_n=6, max_d=3)
            basis = pi_basis(dims)
            if basis.r == 0:
                continue
            slots = [
                i
                for i in range(len(dims))
                if any(g.exponents[i] != 0 for g in basis.groups)
            ]
            if not slots:
                continue
            xs = random_quantities(rng, dims)
            inside = rescale(
                xs,
                Rescaling(system, tuple(rng.uniform(-2, 2) for _ in system.names)),
            )
            assert equivalent(basis, xs, inside).equivalent
            slot = rng.choice(slots)
            outside = list(inside)
            outside[slot] = Quantity(
                outside[slot].log_magnitude + 0.01, outside[slot].dim
            )
            verdict = equivalent(basis, xs, outside)
            assert verdict.reason is VerdictReason.PI_MISMATCH
            done += 1


class TestCanonicalRep:
    def test_mass_spring_rep(self, spring):
        _, dims, _, xs, ref = spring
        sb = special_basis(dims)
        rep = canonical_rep(sb, ref, xs)
        mags = [q.magnitude for q in rep]
        assert mags == pytest.approx([1.0, 1.0, 6.0], rel=1e-12)

    def test_idempotent(self, spring):
        _, dims, _, xs, ref = spring
        sb = special_basis(dims)
        rep = canonical_rep(sb, ref, xs)
        again = canonical_rep(sb, ref, rep)
        for a, b in zip(rep, again):
            assert a.log_magnitude == pytest.approx(b.log_magnitude, abs=1e-12)

    def test_class_preserving_and_pivot_coordinates_one(self):
        rng = random.Random(109)
        done = 0
        while done < 80:
            system, dims = random_dims(rng, max_n=6, max_d=3)
            sb = special_basis(dims)
            basis = pi_basis(dims)
            ref = _consistent_list(rng, system, dims)
            xs = random_quantities(rng, dims)
            rep = canonical_rep(sb, ref, xs)
            assert equivalent(basis, xs, rep).equivalent
            for pivot in sb.pivot_indices:
                assert coordinate(rep[pivot], ref[pivot]) == pytest.approx(1.0, abs=1e-12)
            done += 1

    def test_r_zero_returns_reference(self):
        system = DimSystem(("M", "L"))
        dims = (DimVector.unit(system, "M"), DimVector.unit(system, "L"))
        sb = special_basis(dims)
        ref = [Quantity(0.5, dims[0]), Quantity(-0.25, dims[1])]
        xs = [Quantity(3.0, dims[0]), Quantity(2.0, dims[1])]
        assert canonical_rep(sb, ref, xs) == ref

    def test_inconsistent_reference_rejected(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        dims = tuple(u.dim for u in units)
        sb = special_basis(dims)
        with pytest.raises(InconsistentReferenceError):
            canonical_rep(sb, units, units)


class TestNondimensionalize:
    def test_constant_true_relation(self, spring):
        _, dims, _, xs, ref = spring
        sb = special_basis(dims)
        g = nondimensionalize(lambda values: True, sb, ref)
        assert g(1.0) is True
        assert g(1234.5) is True

    def test_mass_spring_period_predicate(self, spring):
        _, dims, basis, xs, ref = spring
        sb = special_basis(dims)
        from piforge.dsl import evaluate, parse_relation

        node = parse_relation("is_pos_int(t/(2*pi) * (k/m)^(1/2))")

        def f(values):
            return evaluate(node, {"m": values[0], "k": values[1], "t": values[2]})

        g = nondimensionalize(f, sb, ref)
        # the special-basis pi of (1, 4*pi^2, 1) is 2*pi: one full period
        assert g(2 * math.pi) is True
        assert g(3 * math.pi) is False
        # recomposition reproduces f on arbitrary bindings
        rng = random.Random(113)
        for _ in range(50):
            values = random_quantities(rng, dims)
            psi = pi_values(sb.base, values)
            assert g(*psi.values) == f(values)

    def test_fiber_indicator_condenses_to_singleton(self, spring):
        system, dims, basis, xs, ref = spring
        sb = special_basis(dims)

        def fiber(values):
            return equivalent(basis, xs, list(values)).equivalent

        g = nondimensionalize(fiber, sb, ref)
        target = pi_values(sb.base, xs).values[0]
        assert g(target) is True
        assert g(target * 1.001) is False

    def test_inconsistent_reference_rejected(self, registry):
        units = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        dims = tuple(u.dim for u in units)
        sb = special_basis(dims)
        with pytest.raises(InconsistentReferenceError):
            nondimensionalize(lambda values: True, sb, units)


class TestGRejectsWhatIsNotAPositiveReal:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, True, False, 0, -1.0])
    def test_rejected(self, spring, value):
        _, dims, _, _, ref = spring
        g = nondimensionalize(lambda values: True, special_basis(dims), ref)
        with pytest.raises(ValueError, match=r"^pi-values are positive reals, got "):
            g(value)


# The three functions that anchor at a reference list, each called on a
# special basis sb and a reference ref (keyword arguments pass through).
REFERENCE_USERS = {
    "preimage": lambda sb, ref, **kw: preimage(sb, ref, [0.0] * sb.base.r, **kw),
    "canonical_rep": lambda sb, ref, **kw: canonical_rep(sb, ref, ref, **kw),
    "nondimensionalize": lambda sb, ref, **kw: nondimensionalize(lambda v: True, sb, ref, **kw),
}


class TestAnchoredReference:
    """preimage, canonical_rep and nondimensionalize check the reference's
    dimensions and consistency once per reference the special basis is
    anchored at (`SpecialPiBasis.anchor`)."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_USERS))
    def test_clash_message(self, registry, name):
        """The same message on every call: a failed check keeps nothing."""
        ref = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        sb = special_basis(tuple(u.dim for u in ref))
        for _ in range(3):
            with pytest.raises(InconsistentReferenceError) as info:
                REFERENCE_USERS[name](sb, ref)
            assert str(info.value) == "reference list clashes by factor 185200"
        assert sb.anchor == ((), None, ())

    @pytest.mark.parametrize("name", sorted(REFERENCE_USERS))
    def test_verdict_and_message_match_the_unanchored_check(self, name):
        rng = random.Random(127)
        make = REFERENCE_USERS[name]
        seen = set()
        for system, dims in seeded_systems(200):
            sb = special_basis(dims)
            ref = _consistent_list(rng, system, dims)
            if rng.random() < 0.5:
                slot = rng.randrange(len(ref))
                ref[slot] = Quantity(ref[slot].log_magnitude + rng.uniform(0.1, 3.0), dims[slot])
            report = units.is_consistent(ref)
            seen.add(report.consistent)
            if report.consistent:
                make(sb, ref)
                continue
            with pytest.raises(InconsistentReferenceError) as info:
                make(sb, ref)
            factor = format_magnitude(report.witness.log_clash_factor)
            assert str(info.value) == f"reference list clashes by factor {factor}"
        assert seen == {True, False}

    def test_a_stream_of_records_eliminates_once(self, rref_calls):
        """The builder's one elimination serves the whole stream: a reference
        over the basis's own DimVector objects finds their reduction in the
        `core.reduce_dims` slot, and later records find the anchor."""
        rng = random.Random(131)
        system, dims = next(seeded_systems(1))
        sb = special_basis(dims)
        assert len(rref_calls) == 1
        ref = _consistent_list(rng, system, dims)
        del rref_calls[:]
        for _ in range(50):
            canonical_rep(sb, ref, random_quantities(rng, dims))
        assert len(rref_calls) == 0
        for use in REFERENCE_USERS.values():
            use(sb, ref)
        assert len(rref_calls) == 0

    def test_anchoring_bases_in_turn_makes_no_elimination(self, rref_calls):
        """A reference that reads through the base's reader carries the
        base's dimensions, so its consistency reads off the base's own
        reduction: anchoring one basis after another, each with the
        `core.reduce_dims` slot holding another's list, eliminates nothing,
        and each anchor raises or passes as a fresh check says."""
        rng = random.Random(157)
        cases = []
        for system, dims in seeded_systems(60):
            ref = _consistent_list(rng, system, dims)
            if rng.random() < 0.5:
                slot = rng.randrange(len(ref))
                ref[slot] = Quantity(ref[slot].log_magnitude + rng.uniform(0.1, 3.0), dims[slot])
            cases.append((special_basis(dims), ref, units.is_consistent(ref)))
        assert {report.consistent for *_, report in cases} == {True, False}
        del rref_calls[:]
        for sb, ref, report in cases:
            if report.consistent:
                canonical_rep(sb, ref, ref)
                assert sb.anchor[0] == tuple(ref)
                continue
            with pytest.raises(InconsistentReferenceError) as info:
                canonical_rep(sb, ref, ref)
            factor = format_magnitude(report.witness.log_clash_factor)
            assert str(info.value) == f"reference list clashes by factor {factor}"
        assert rref_calls == []

    def test_a_reference_over_equal_copies_eliminates_once(self, rref_calls):
        """Equal copies of the basis dimensions hit the reduction slot: the
        builder's one elimination serves every anchoring, a call with the
        same list finds the anchor, and the anchor's logs are those of a
        reference over the basis's own dimensions."""
        rng = random.Random(137)
        system, dims = next(seeded_systems(1))
        for name, use in REFERENCE_USERS.items():
            sb = special_basis(dims)
            own = _consistent_list(rng, system, dims)
            ref = [Quantity(q.log_magnitude, _copy(q.dim)) for q in own]
            use(sb, ref)
            assert len(rref_calls) == 1, name
            use(sb, ref)
            assert len(rref_calls) == 1, name
            fresh = special_basis(dims)
            use(fresh, own)
            assert sb.anchor[1:] == fresh.anchor[1:], name

    @staticmethod
    def _spring_off_by(log_offset):
        """The spring's special basis and a reference list whose group
        k t^2 / m comes to exp(2 * log_offset), not 1."""
        _, dims = mass_spring_dims()
        ref = [Quantity(0.0, dims[0]), Quantity(0.0, dims[1]), Quantity(log_offset, dims[2])]
        return special_basis(dims), ref

    @pytest.mark.parametrize("name", sorted(REFERENCE_USERS))
    def test_a_slot_replaced_in_place_is_checked_again(self, name):
        sb, ref = self._spring_off_by(0.0)
        make = REFERENCE_USERS[name]
        make(sb, ref)
        make(sb, ref)
        kept = ref[2]
        ref[2] = Quantity(1.0, kept.dim)
        with pytest.raises(InconsistentReferenceError) as info:
            make(sb, ref)
        assert str(info.value) == f"reference list clashes by factor {format_magnitude(2.0)}"
        ref[2] = kept
        make(sb, ref)

    @pytest.mark.parametrize("name", sorted(REFERENCE_USERS))
    def test_a_changed_tol_is_checked_again(self, name):
        """Consistent within 1e-3, not within 1e-12: each change of tol
        gives the verdict a fresh check would."""
        sb, ref = self._spring_off_by(1e-6)
        make = REFERENCE_USERS[name]
        for _ in range(2):
            make(sb, ref, tol=1e-3)
            make(sb, ref, tol=1e-3)
            with pytest.raises(InconsistentReferenceError):
                make(sb, ref, tol=1e-12)
        make(sb, ref, tol=1e-3)

    def test_anchored_outputs_match_a_never_anchored_basis(self):
        """Float-hex equal, slot for slot, to a fresh basis for every call."""
        rng = random.Random(137)

        def hexes(qs):
            return [(q.log_magnitude.hex(), q.dim) for q in qs]

        for system, dims in seeded_systems(200):
            sb = special_basis(dims)
            ref = _consistent_list(rng, system, dims)
            seen = []
            g = nondimensionalize(lambda xs: seen.append(hexes(xs)) or True, sb, ref)
            for _ in range(3):
                xs = random_quantities(rng, dims)
                log_values = [rng.uniform(-5.0, 5.0) for _ in range(sb.base.r)]
                assert hexes(canonical_rep(sb, ref, xs)) == hexes(
                    canonical_rep(special_basis(dims), ref, xs))
                assert hexes(preimage(sb, ref, log_values)) == hexes(
                    preimage(special_basis(dims), ref, log_values))
                values = [math.exp(v) for v in log_values]
                fresh = []
                nondimensionalize(lambda xs: fresh.append(hexes(xs)) or True,
                                  special_basis(dims), ref)(*values)
                g(*values)
                assert seen.pop() == fresh.pop()
            assert sb.anchor[0] == tuple(ref) and all(map(operator.is_, sb.anchor[0], ref))

    @pytest.fixture
    def consistency_checks(self, monkeypatch):
        calls = []
        original = units.is_consistent

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(units, "is_consistent", counting)
        return calls

    def test_a_stream_of_records_checks_the_reference_once(self, consistency_checks):
        rng = random.Random(139)
        system, dims = next(seeded_systems(2))
        sb = special_basis(dims)
        ref = _consistent_list(rng, system, dims)
        for _ in range(200):
            canonical_rep(sb, ref, random_quantities(rng, dims))
        preimage(sb, ref, [0.0] * sb.base.r)
        nondimensionalize(lambda xs: True, sb, ref)(*[1.0] * sb.base.r)
        assert len(consistency_checks) == 1
        # another list of the same objects, or of equal copies, hits
        canonical_rep(sb, list(ref), ref)
        copies = [Quantity(q.log_magnitude, _copy(q.dim)) for q in ref]
        assert canonical_rep(sb, copies, ref) == canonical_rep(sb, ref, ref)
        assert len(consistency_checks) == 1
        # another tol, or the list edited in place, is checked again
        canonical_rep(sb, copies, ref, 1e-6)
        assert len(consistency_checks) == 2
        copies[:] = _consistent_list(rng, system, dims)
        canonical_rep(sb, copies, ref, 1e-6)
        assert len(consistency_checks) == 3
        with pytest.raises(ValueError):
            canonical_rep(sb, copies, ref, math.nan)

    def test_each_basis_keeps_its_own_anchor(self, consistency_checks):
        rng = random.Random(149)
        systems = list(seeded_systems(3))[1:]
        bases = [(special_basis(dims), _consistent_list(rng, system, dims), dims)
                 for system, dims in systems]
        for _ in range(100):
            for sb, ref, dims in bases:
                canonical_rep(sb, ref, random_quantities(rng, dims))
        assert len(consistency_checks) == len(bases)
        for sb, ref, _ in bases:
            assert all(map(operator.is_, sb.anchor[0], ref))

    def test_an_anchored_basis_equals_an_unanchored_one(self):
        """A used basis pickles: its kernels stay behind, its anchor and row
        space go along, and the copy builds kernels giving the same floats."""
        rng = random.Random(151)
        for system, dims in seeded_systems(20):
            anchored, fresh = special_basis(dims), special_basis(dims)
            xs, ys = random_quantities(rng, dims), random_quantities(rng, dims)
            rep = canonical_rep(anchored, _consistent_list(rng, system, dims), xs)
            verdict, rows = equivalent(anchored.base, xs, ys), anchored.base.row_space
            assert anchored.anchor != fresh.anchor
            assert anchored == fresh and hash(anchored) == hash(fresh)
            assert repr(anchored) == repr(fresh)
            copy = pickle.loads(pickle.dumps(anchored))
            assert copy == fresh and hash(copy) == hash(fresh)
            assert copy.anchor == anchored.anchor
            assert not {"log_values", "orbit_gap", "reader"} & set(vars(copy.base))
            assert vars(copy.base)["row_space"] == rows
            assert canonical_rep(copy, list(copy.anchor[0]), xs) == rep
            assert equivalent(copy.base, xs, ys) == verdict


class TestNanTolerance:
    def test_equivalent(self, spring):
        _, _, basis, xs, _ = spring
        with pytest.raises(ValueError, match="tol must be a number"):
            equivalent(basis, xs, xs, tol=math.nan)

    @pytest.mark.parametrize("name", sorted(REFERENCE_USERS))
    def test_reference_users(self, spring, name):
        _, dims, _, _, ref = spring
        with pytest.raises(ValueError, match="tol must be a number"):
            REFERENCE_USERS[name](special_basis(dims), ref, tol=math.nan)


class TestNegativeTolerance:
    """No gap is below a negative tol, so a list would not be equivalent to
    itself; the tol is refused, not obeyed."""

    def test_equivalent(self, spring):
        _, _, basis, xs, _ = spring
        with pytest.raises(ValueError, match="tol must be at least 0, got -1.0"):
            equivalent(basis, xs, xs, tol=-1.0)

    def test_equivalent_with_no_groups(self):
        # r = 0 answers without a gap; the tol is refused all the same
        system = DimSystem(("L", "T"))
        dims = (DimVector.unit(system, "L"), DimVector.unit(system, "T"))
        xs = [Quantity(0.0, w) for w in dims]
        assert equivalent(pi_basis(dims), xs, xs, tol=0.0).equivalent
        with pytest.raises(ValueError, match="tol must be at least 0"):
            equivalent(pi_basis(dims), xs, xs, tol=-1.0)

    @pytest.mark.parametrize("name", sorted(REFERENCE_USERS))
    def test_reference_users(self, spring, name):
        _, dims, _, _, ref = spring
        with pytest.raises(ValueError, match="tol must be at least 0"):
            REFERENCE_USERS[name](special_basis(dims), ref, tol=-1.0)

    def test_zero_and_infinite_tol_are_kept(self, spring):
        _, _, basis, xs, _ = spring
        far = [Quantity(x.log_magnitude + 1.0, x.dim) for x in xs]
        assert equivalent(basis, xs, xs, tol=0.0).equivalent
        assert not equivalent(basis, xs, far, tol=0.0).equivalent
        assert equivalent(basis, xs, far, tol=math.inf).equivalent


def _copy(w: DimVector) -> DimVector:
    """An equal DimVector that is another object, as a quantity literal's is."""
    copy = DimVector(w.system, tuple(w.exponents))
    assert copy == w and copy is not w
    return copy


def _other(w: DimVector) -> DimVector:
    """A dimension that differs from w in its first fundamental."""
    return DimVector(w.system, (w.exponents[0] + 1,) + tuple(w.exponents[1:]))


class TestEqualCopiesOfTheBasisDims:
    """Bindings over equal copies of the basis dimensions pass the same
    tuple compare and get the answers the basis's own objects get."""

    def test_same_results(self):
        rng = random.Random(173)
        reasons = set()
        for system, dims in seeded_systems(120):
            basis, sb = pi_basis(dims), special_basis(dims)
            copies = [_copy(w) for w in dims]
            ref = _consistent_list(rng, system, dims)
            logs = [rng.uniform(-5.0, 5.0) for _ in dims]
            shift = [q.log_magnitude for q in _consistent_list(rng, system, dims)]
            bumped = list(logs)
            bumped[rng.randrange(len(dims))] += rng.uniform(0.1, 1.0)
            k = rng.randrange(len(dims))
            dims_off = [_other(w) if i == k else w for i, w in enumerate(dims)]
            cases = {
                "same": [a + b for a, b in zip(logs, shift)],
                "bumped": bumped,
                "short": logs[:-1],
            }
            xs, xc = ([Quantity(v, w) for v, w in zip(logs, ws)] for ws in (dims, copies))
            assert pi_values(basis, xc) == pi_values(basis, xs)
            ref_copies = [Quantity(q.log_magnitude, w) for q, w in zip(ref, copies)]
            assert canonical_rep(sb, ref_copies, xc) == canonical_rep(sb, ref, xs)
            assert canonical_rep(sb, ref_copies, xs) == canonical_rep(sb, ref, xc)
            for name, ys_logs in cases.items():
                for ws in (dims, copies, dims_off):
                    ys = [Quantity(v, w) for v, w in zip(ys_logs, ws)]
                    expected = equivalent(basis, xs, ys)
                    assert equivalent(basis, xc, ys) == expected
                    ys_copied = [Quantity(y.log_magnitude, _copy(y.dim)) for y in ys]
                    assert equivalent(basis, xs, ys_copied) == expected
                    reasons.add(expected.reason)
        assert reasons == set(VerdictReason)

    def test_wrong_slot_is_named(self):
        """Every caller of `core.check_dims` names the first wrong slot, or
        the slot counts, with its own label."""
        rng = random.Random(179)
        for system, dims in seeded_systems(60):
            sb = special_basis(dims)
            ref = _consistent_list(rng, system, dims)
            n = len(dims)
            for ws in (dims, [_copy(w) for w in dims]):
                # an empty unit list is refused before its dimensions are read
                lengths = [n + 1, n - 1] if n > 1 else [n + 1]
                cases = [
                    ([Quantity(0.0, ws[i % n]) for i in range(m)], f" has {m} slots for {n} dimensions")
                    for m in lengths
                ]
                for k in range(n):
                    wrong = _other(dims[k])
                    bad = [Quantity(0.0, wrong if i == k else w) for i, w in enumerate(ws)]
                    cases.append((bad, f"[{k}] has dimension {wrong}, expected {dims[k]}"))
                for bad, message in cases:
                    for label, call in (
                        ("xs", lambda: pi_values(sb.base, bad)),
                        ("xs", lambda: equivalent(sb.base, bad, bad)),
                        ("xs", lambda: canonical_rep(sb, ref, bad)),
                        ("ref", lambda: canonical_rep(sb, bad, ref)),
                        ("xs", lambda: strip_units(ref, bad)),
                    ):
                        with pytest.raises(DimensionMismatchError) as info:
                            call()
                        assert str(info.value) == label + message


class TestExponentBeyondTheFloatRange:
    """The float path needs a float for every exponent; where one lies beyond
    the float range, EvaluationError says so in place of an OverflowError."""

    L = DimSystem(("L",))
    dims = [DimVector(L, (Fraction(1),)), DimVector(L, (Fraction(10**400),))]

    def test_pi_values(self):
        xs = [Quantity(0.0, w) for w in self.dims]
        with pytest.raises(EvaluationError, match="float range"):
            pi_values(pi_basis(self.dims), xs)

    def test_is_consistent(self):
        xs = [Quantity(0.0, w) for w in self.dims]
        with pytest.raises(EvaluationError, match="float range"):
            units.is_consistent(xs)

    def test_is_consistent_with_a_row_norm_past_the_float_range(self):
        # each ratio is a float, but their norm is not: no row to measure by
        big = DimVector(self.L, (Fraction(15 * 10**307),))
        xs = [Quantity(1e-308 * float(w.exponents[0]), w) for w in (self.dims[0], big, big)]
        with pytest.raises(EvaluationError, match="float range"):
            units.is_consistent(xs)


def _first_largest(group_logs) -> int:
    """The group a Python max over |log| names: the first of any tie."""
    return max(range(len(group_logs)), key=lambda i: abs(group_logs[i]))


class TestRecordPath:
    """What a record returns is what the public constructors and the
    term-by-term loops give, whatever objects the record path reuses."""

    def test_mismatch_index_is_the_first_of_tied_largest_groups(self):
        """Logs of 0.0 at every pivot slot give each group its free slot's
        term alone, so the largest |group logs| tie exactly: at t and -t in
        the special basis, at c*t for equal c in the canonical one."""
        rng = random.Random(191)
        ties = 0
        for system, dims in seeded_systems(200):
            sb = special_basis(dims)
            if sb.base.r < 2:
                continue
            t = rng.uniform(1.0, 5.0)
            logs = [0.0] * len(dims)
            for free in sb.free_indices:
                logs[free] = rng.choice((t, -t, rng.uniform(-t / 2, t / 2)))
            for free in rng.sample(sb.free_indices, 2):
                logs[free] = rng.choice((t, -t))
            xs = [Quantity(v, w) for v, w in zip(logs, dims)]
            origin = [Quantity(0.0, w) for w in dims]
            for basis in (sb.base, sb.canonical):
                group_logs = [reference_log_combine(g.exponents, logs) for g in basis.groups]
                worst = _first_largest(group_logs)
                expected = EquivalenceVerdict(False, VerdictReason.PI_MISMATCH, mismatch_index=worst)
                assert equivalent(basis, xs, origin) == expected
                ties += [abs(v) for v in group_logs].count(abs(group_logs[worst])) > 1
        assert ties > 100

    def test_every_verdict_equals_one_built_publicly(self):
        rng = random.Random(193)
        seen = set()
        for system, dims in seeded_systems(200):
            basis = pi_basis(dims)
            xs = [Quantity(rng.uniform(-5.0, 5.0), w) for w in dims]
            shift = _consistent_list(rng, system, dims)
            ys = [Quantity(x.log_magnitude + s.log_magnitude, w) for x, s, w in zip(xs, shift, dims)]
            k = rng.randrange(len(dims))
            off = [Quantity(x.log_magnitude, _other(w) if i == k else w)
                   for i, (x, w) in enumerate(zip(xs, dims))]
            expected = [
                (ys, EquivalenceVerdict(True, VerdictReason.EQUIVALENT)),
                (off, EquivalenceVerdict(False, VerdictReason.DIM_MISMATCH)),
            ]
            used = [j for j in range(len(dims)) if any(g.exponents[j] for g in basis.groups)]
            if used:
                j = rng.choice(used)
                bump = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
                zs = [Quantity(x.log_magnitude - bump * (i == j), w)
                      for i, (x, w) in enumerate(zip(xs, dims))]
                delta = [bump * (i == j) for i in range(len(dims))]
                worst = _first_largest([reference_log_combine(g.exponents, delta)
                                        for g in basis.groups])
                expected.append((zs, EquivalenceVerdict(False, VerdictReason.PI_MISMATCH,
                                                        mismatch_index=worst)))
            for other, verdict in expected:
                got = equivalent(basis, xs, other)
                assert got == verdict and hash(got) == hash(verdict) and repr(got) == repr(verdict)
                seen.add(got.reason)
        assert seen == set(VerdictReason)

    def test_canonical_rep_raises_for_xs_before_it_reads_ref(self):
        """A wrong-dimension xs, or a group exponent beyond the float range,
        raises from canonical_rep with the text pi_values gives, whatever
        the reference holds, and anchors nothing."""
        rng = random.Random(197)
        cases = []
        for system, dims in seeded_systems(60):
            k = rng.randrange(len(dims))
            bad = [Quantity(0.0, _other(w) if i == k else w) for i, w in enumerate(dims)]
            cases.append((dims, bad, [bad, _consistent_list(rng, system, dims)]))
        L = DimSystem(("L",))
        wide = (DimVector.unit(L, "L"), DimVector(L, (Fraction(10**400),)))
        xs = [Quantity(0.0, w) for w in wide]
        cases.append((wide, xs, [xs[::-1], xs]))
        for dims, xs, refs in cases:
            sb = special_basis(dims)
            with pytest.raises((DimensionMismatchError, EvaluationError)) as expected:
                pi_values(sb.base, xs)
            for ref in refs:
                with pytest.raises(expected.type) as info:
                    canonical_rep(sb, ref, xs)
                assert str(info.value) == str(expected.value)
            assert sb.anchor == ((), None, ())
