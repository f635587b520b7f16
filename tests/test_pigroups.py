import pickle
import random
import sys
import threading
from fractions import Fraction
from functools import cached_property

import pytest

from piforge import cli, core, units
from piforge.core import DimSystem, DimVector, Monomial, Quantity, dim_combine, dimension_matrix, row_space
from piforge.errors import NotABasisError
from piforge.exactlin import QMatrix, eliminate, rref
from piforge.pigroups import (
    PiBasis,
    SpecialPiBasis,
    Transition,
    is_pi_basis,
    pi_basis,
    special_basis,
    transition,
)

from support import (
    FIXTURES,
    apply_change_of_basis as _apply_change,
    kinematics_dims,
    ladder_dims as _ladder_dims,
    mass_spring_dims,
    random_dims,
    random_invertible,
    reference_special_basis,
    reference_transition,
    seeded_systems,
)


class TestPiBasis:
    def test_mass_spring_group(self):
        _, dims = mass_spring_dims()
        basis = pi_basis(dims)
        assert basis.r == 1
        assert basis.groups[0].exponents == (Fraction(-1), Fraction(1), Fraction(2))

    def test_velocity_group(self):
        _, dims = kinematics_dims()
        basis = pi_basis(dims)
        assert basis.groups[0].exponents == (Fraction(-1), Fraction(1), Fraction(1))

    def test_independent_dims_give_empty_basis(self):
        system = DimSystem(("M", "L", "T"))
        dims = tuple(DimVector.unit(system, n) for n in system.names)
        basis = pi_basis(dims)
        assert basis.r == 0
        assert basis.groups == ()

    def test_group_count_is_nullity(self):
        rng = random.Random(61)
        for _ in range(300):
            system, dims = random_dims(rng)
            basis = pi_basis(dims)
            matrix = dimension_matrix(system, dims)
            assert basis.r == len(dims) - rref(matrix)[2]
            for g in basis.groups:
                assert dim_combine(g, dims).is_zero()

    def test_invalid_bases_rejected_at_construction(self):
        _, dims = mass_spring_dims()
        with pytest.raises(NotABasisError):
            PiBasis(dims=dims, groups=(Monomial.of(1, 0, 0),))
        with pytest.raises(NotABasisError):
            PiBasis(dims=dims, groups=())
        with pytest.raises(NotABasisError):
            PiBasis(dims=dims, groups=(Monomial.of(-1, 1, 2), Monomial.of(-2, 2, 4)))


class TestSpecialBasis:
    def test_mass_spring(self):
        _, dims = mass_spring_dims()
        sb = special_basis(dims)
        assert sb.pivot_indices == (0, 1)
        assert sb.free_indices == (2,)
        assert sb.base.groups[0].exponents == (
            Fraction(-1, 2),
            Fraction(1, 2),
            Fraction(1),
        )

    def test_velocity(self):
        _, dims = kinematics_dims()
        sb = special_basis(dims)
        assert sb.pivot_indices == (0, 1)
        assert sb.free_indices == (2,)
        assert sb.base.groups[0].exponents == (Fraction(-1), Fraction(1), Fraction(1))

    def test_fully_determined_case(self):
        system = DimSystem(("M", "L"))
        dims = (DimVector.unit(system, "M"), DimVector.unit(system, "L"))
        sb = special_basis(dims)
        assert sb.base.groups == ()
        assert sb.free_indices == ()
        assert sb.pivot_indices == (0, 1)

    def test_structure_and_index_partition(self):
        rng = random.Random(67)
        for _ in range(200):
            system, dims = random_dims(rng)
            sb = special_basis(dims)
            assert is_pi_basis(sb.base.groups, dims)
            assert sorted(sb.pivot_indices + sb.free_indices) == list(range(len(dims)))
            for group, free in zip(sb.base.groups, sb.free_indices):
                assert group.exponents[free] == 1
                for other in sb.free_indices:
                    if other != free:
                        assert group.exponents[other] == 0


class TestTransition:
    def test_identity(self):
        _, dims = mass_spring_dims()
        basis = pi_basis(dims)
        tr = transition(basis, basis)
        assert tr.matrix == QMatrix.identity(1)

    def test_canonical_to_special_is_one_half(self):
        _, dims = mass_spring_dims()
        canonical = pi_basis(dims)
        special = special_basis(dims).base
        tr = transition(canonical, special)
        assert tr.matrix == QMatrix.from_rows([[Fraction(1, 2)]])
        assert tr.inverse == QMatrix.from_rows([[2]])

    def test_swapped_groups_give_permutation(self):
        system = DimSystem(("L",))
        length = DimVector.unit(system, "L")
        dims = (length, length, length)
        basis = pi_basis(dims)
        assert basis.r == 2
        swapped = PiBasis(dims=dims, groups=(basis.groups[1], basis.groups[0]))
        tr = transition(basis, swapped)
        assert tr.matrix == QMatrix.from_rows([[0, 1], [1, 0]])

    def test_mismatched_dims_rejected(self):
        _, spring = mass_spring_dims()
        _, motion = kinematics_dims()
        with pytest.raises(NotABasisError):
            transition(pi_basis(spring), pi_basis(motion))

    def test_rows_reconstruct_target_groups(self):
        rng = random.Random(71)
        done = 0
        while done < 100:
            system, dims = random_dims(rng)
            basis = pi_basis(dims)
            if basis.r == 0:
                continue
            change = random_invertible(rng, basis.r)
            other = PiBasis(dims=dims, groups=_apply_change(change, basis.groups))
            tr = transition(basis, other)
            assert tr.matrix == change
            # row i of the matrix rebuilds other.groups[i] from basis.groups
            rebuilt = _apply_change(tr.matrix, basis.groups)
            assert rebuilt == other.groups
            done += 1

    def test_composition_law(self):
        rng = random.Random(73)
        done = 0
        while done < 60:
            system, dims = random_dims(rng)
            a = pi_basis(dims)
            if a.r == 0:
                continue
            b = PiBasis(dims=dims, groups=_apply_change(random_invertible(rng, a.r), a.groups))
            c = PiBasis(dims=dims, groups=_apply_change(random_invertible(rng, a.r), a.groups))
            m_ab = transition(a, b).matrix
            m_bc = transition(b, c).matrix
            m_ac = transition(a, c).matrix
            assert m_ac == m_bc.matmul(m_ab)
            done += 1

    def test_any_two_bases_have_invertible_transition(self):
        rng = random.Random(79)
        done = 0
        while done < 100:
            system, dims = random_dims(rng)
            basis = pi_basis(dims)
            if basis.r == 0:
                continue
            change_a = random_invertible(rng, basis.r)
            change_b = random_invertible(rng, basis.r)
            a = PiBasis(dims=dims, groups=_apply_change(change_a, basis.groups))
            b = PiBasis(dims=dims, groups=_apply_change(change_b, basis.groups))
            tr = transition(a, b)  # construction validates M * N == I
            assert tr.matrix.matmul(tr.inverse) == QMatrix.identity(basis.r)
            done += 1

    @pytest.mark.parametrize("d,n", [(7, 24), (10, 48)])
    def test_non_diagonal_blocks_at_ladder_sizes(self, d, n):
        """A unit-triangular integer change of the canonical basis has a
        non-diagonal free-slot block, so each direction takes the r x r
        solve one way and the entrywise division the other."""
        rng = random.Random(47 + d)
        dims = _ladder_dims(rng, d, n)
        canonical = pi_basis(dims)
        r = canonical.r
        change = QMatrix.from_rows(
            [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(r)] for i in range(r)]
        )
        changed = PiBasis(dims=dims, groups=_apply_change(change, canonical.groups))
        special = special_basis(dims).base
        for diagonal in (canonical, special):
            for psi, pi in ((diagonal, changed), (changed, diagonal)):
                t = transition(psi, pi)
                assert t.matrix.matmul(_exponents(psi)) == _exponents(pi)
                assert t.matrix.matmul(t.inverse) == QMatrix.identity(r)
        assert transition(canonical, changed).matrix == change


class TestIsPiBasis:
    def test_pi_basis_output_is_a_basis(self):
        _, dims = mass_spring_dims()
        basis = pi_basis(dims)
        assert is_pi_basis(basis.groups, dims)

    def test_scalar_multiple_still_a_basis_when_r_is_one(self):
        _, dims = mass_spring_dims()
        assert is_pi_basis([Monomial.of(-2, 2, 4)], dims)

    def test_non_annihilating_candidate_rejected(self):
        _, dims = mass_spring_dims()
        assert not is_pi_basis([Monomial.of(1, 0, 0)], dims)

    def test_wrong_count_rejected(self):
        _, dims = mass_spring_dims()
        assert not is_pi_basis([], dims)
        assert not is_pi_basis([Monomial.of(-1, 1, 2), Monomial.of(-2, 2, 4)], dims)

    def test_wrong_arity_rejected(self):
        _, dims = mass_spring_dims()
        assert not is_pi_basis([Monomial.of(-1, 1)], dims)

    def test_empty_dims_is_not_a_basis(self):
        assert not is_pi_basis([], [])

    @pytest.mark.parametrize("builder", [pi_basis, special_basis])
    def test_builders_reject_empty_dims(self, builder):
        with pytest.raises(NotABasisError, match="at least one dimension slot"):
            builder([])


class TestFractionReference:
    """The single-elimination builders against one Fraction solve per
    column (special_basis) and per target group (transition)."""

    def test_special_basis_matches_per_column_solve(self):
        rs = set()
        for _, dims in seeded_systems():
            sb = special_basis(dims)
            pivots, free, groups = reference_special_basis(dims)
            assert (sb.pivot_indices, sb.free_indices) == (pivots, free)
            assert tuple(g.exponents for g in sb.base.groups) == groups
            rs.add(len(groups))
        assert 0 in rs and max(rs) >= 30

    def test_transition_matches_per_group_solve(self):
        rng = random.Random(29)
        for _, dims in seeded_systems():
            canonical = pi_basis(dims)
            pairs = [(canonical, special_basis(dims).base)]
            if 0 < canonical.r <= 6:
                changed = _apply_change(random_invertible(rng, canonical.r), canonical.groups)
                pairs.append((canonical, PiBasis(dims=dims, groups=changed)))
            for psi, pi in pairs:
                t = transition(psi, pi)
                assert (t.matrix, t.inverse) == reference_transition(psi.groups, pi.groups)


def _exponents(basis) -> QMatrix:
    return QMatrix.from_rows([g.exponents for g in basis.groups])


class TestEliminationCount:
    """Deterministic guard on the number of eliminations per call."""

    def test_special_basis_eliminates_once_besides_validation(self, rref_calls):
        """The constructor reuses the builder's reduction of the same dims;
        its one elimination is the groups' independence check."""
        dims = _ladder_dims(random.Random(31), 10, 48)
        sb = special_basis(dims)
        built = len(rref_calls)
        PiBasis(dims=dims, groups=sb.base.groups)
        validation = len(rref_calls) - built
        assert built == 1
        assert validation == 1

    @pytest.mark.parametrize("builder", [pi_basis, special_basis])
    def test_builders_eliminate_once(self, rref_calls, builder):
        rng = random.Random(41)
        for d, n in ((10, 48), (7, 24), (4, 12), (3, 6), (3, 3)):
            dims = _ladder_dims(rng, d, n)
            del rref_calls[:]
            builder(dims)
            assert len(rref_calls) == 1, (d, n)

    def test_cli_pi_eliminates_once_per_basis(self, rref_calls, capsys):
        """Both bases come off one elimination."""
        assert cli.main(["pi", "--spec", str(FIXTURES / "electronics.json")]) == 0
        assert len(rref_calls) == 1

    def test_transition_eliminates_at_most_twice(self, rref_calls):
        """Builder pairs have diagonal free-slot blocks: no elimination."""
        rng = random.Random(37)
        for d, n in ((10, 48), (7, 24), (4, 12), (3, 6), (3, 3)):
            dims = _ladder_dims(rng, d, n)
            canonical = pi_basis(dims)
            special = special_basis(dims).base
            for psi, pi in ((canonical, special), (special, canonical)):
                del rref_calls[:]
                transition(psi, pi)
                assert len(rref_calls) == 0, (d, n, canonical.r)

    def test_is_consistent_on_a_clash_eliminates_once(self, rref_calls, registry):
        """Rows and witness come off one reduction."""
        clash = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        assert not units.is_consistent(clash).consistent
        assert len(rref_calls) == 1

    def test_express_eliminates_at_most_twice(self, rref_calls, registry):
        """One elimination for the base's rank, one for every target."""
        base = [registry.quantity(n) for n in ("V", "A", "s")]
        names = ("ohm", "F", "V", "A", "s")
        for k in (1, len(names), 40):
            targets = [registry.quantity(names[i % len(names)]) for i in range(k)]
            del rref_calls[:]
            units.express(base, targets)
            assert len(rref_calls) <= 2, k

    def test_cli_nondim_eliminates_once(self, rref_calls, capsys):
        """Both bases come off one elimination, and the reference check's
        `reduce_dims` finds the spec's dimensions, which built them, in its
        slot."""
        spec, bindings = FIXTURES / "mass_spring.json", FIXTURES / "mass_spring_bindings.json"
        assert cli.main(["nondim", "--spec", str(spec), str(bindings)]) == 0
        assert len(rref_calls) == 1

    def test_cli_consistent_clash_eliminates_once(self, rref_calls, capsys):
        registry = str(FIXTURES / "registry.json")
        assert cli.main(["consistent", "cm", "hr", "knot", "--registry", registry]) == 1
        assert len(rref_calls) == 1

    def test_ladder_problem_eliminates_once(self, rref_calls):
        """One basis-ladder problem: `pi_basis` reduces the dims, and
        `special_basis` and `is_consistent`, over the same DimVector
        objects, reuse that reduction; `transition` needs none."""
        rng = random.Random(53)
        for d, n in ((3, 6), (4, 12), (7, 24), (10, 48)):
            dims = _ladder_dims(rng, d, n)
            del rref_calls[:]
            canonical = pi_basis(dims)
            special = special_basis(dims)
            transition(canonical, special.base)
            assert units.is_consistent([Quantity(0.0, w) for w in dims]).consistent
            assert len(rref_calls) == 1, (d, n)



def _copies(dims):
    """Equal DimVectors, each a distinct object."""
    return tuple(DimVector(w.system, tuple(w.exponents)) for w in dims)


def _fresh_reduction(dims):
    return eliminate(dimension_matrix(dims[0].system, dims))


class TestReductionCache:
    """`core.reduce_dims` keeps the last list it reduced: the same DimVector
    objects, slot for slot, reuse its reduction; anything else reduces."""

    def test_hit_returns_the_same_reduction(self, rref_calls):
        dims = _ladder_dims(random.Random(61), 4, 12)
        first = core.reduce_dims(dims)
        assert core.reduce_dims(list(dims)) is first
        assert core.reduce_dims(tuple(dims)) is first
        assert len(rref_calls) == 1

    def test_equal_copies_reduce_again_to_an_equal_result(self, rref_calls):
        dims = _ladder_dims(random.Random(67), 7, 24)
        first = core.reduce_dims(dims)
        copies = _copies(dims)
        assert copies == dims and all(a is not b for a, b in zip(copies, dims))
        again = core.reduce_dims(copies)
        assert again is not first
        assert len(rref_calls) == 2
        assert again == first
        assert again.int_rows == first.int_rows
        assert all(type(v) is int for row in again.int_rows for v in row)
        assert (again.pivot_cols, again.rank) == (first.pivot_cols, first.rank)

    @staticmethod
    def _problem(dims):
        canonical = pi_basis(dims)
        special = special_basis(dims)
        consistency = units.is_consistent([Quantity(0.0, w) for w in dims])
        return canonical, special, transition(canonical, special.base), consistency

    def _warm_equals_cold(self, dims):
        core._last_reduction = ((), None)
        cold = self._problem(_copies(dims))
        core.reduce_dims(dims)
        warm = self._problem(dims)
        for a, b in zip(warm, cold):
            assert a == b
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)
        assert warm[0].reduction is warm[1].base.reduction
        assert warm[0].reduction == cold[0].reduction
        assert warm[0].row_space == cold[0].row_space

    def test_warm_and_cold_bases_agree(self, rref_calls):
        for _, dims in seeded_systems():
            self._warm_equals_cold(dims)
        rng = random.Random(71)
        for d, n in ((3, 6), (4, 12), (7, 24), (10, 48)):
            self._warm_equals_cold(_ladder_dims(rng, d, n))

    def test_other_lists_miss(self, rref_calls):
        rng = random.Random(73)
        dims = _ladder_dims(rng, 4, 12)
        extra = _ladder_dims(rng, 4, 12)[0]
        swapped = list(dims)
        swapped[3] = extra
        variants = {
            "reordered": dims[1:] + dims[:1],
            "one longer": dims + (extra,),
            "one shorter": dims[:-1],
            "one slot other": tuple(swapped),
        }
        for name, variant in variants.items():
            core.reduce_dims(dims)
            del rref_calls[:]
            assert core.reduce_dims(variant) == _fresh_reduction(variant), name
            assert len(rref_calls) == 1, name

    def test_each_call_gets_its_own_lists_reduction(self, rref_calls):
        rng = random.Random(79)
        a, b = _ladder_dims(rng, 3, 6), _ladder_dims(rng, 4, 12)
        first = core.reduce_dims(a)
        assert core.reduce_dims(b) == _fresh_reduction(b)
        assert core.reduce_dims(a) == first == _fresh_reduction(a)
        assert len(rref_calls) == 3

    def test_threads_alternating_two_lists(self):
        rng = random.Random(83)
        lists = (_ladder_dims(rng, 3, 6), _ladder_dims(rng, 4, 12))
        expected = [_fresh_reduction(ws) for ws in lists]
        assert expected[0] != expected[1]
        wrong = []

        def work(offset):
            for i in range(300):
                k = (i + offset) % 2
                if core.reduce_dims(lists[k]) != expected[k]:
                    wrong.append((offset, i))

        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_fundamental_basis_eliminates_once(self, rref_calls, registry):
        quantities = [registry.quantity(n) for n in ("ohm", "F", "V", "A", "s")]
        basis = units.fundamental_basis(quantities)
        assert len(rref_calls) == 1
        assert [q.dim for q in basis] == [quantities[i].dim for i in _fresh_reduction(
            [q.dim for q in quantities]).pivot_cols]


class TestCanonicalOfSpecial:
    def test_canonical_is_pi_basis(self):
        for _, dims in seeded_systems(200):
            canonical = special_basis(dims).canonical
            expected = pi_basis(dims)
            assert canonical == expected
            assert hash(canonical) == hash(expected)
            assert repr(canonical) == repr(expected)
            assert canonical.row_space == expected.row_space

    def test_public_special_basis_over_other_pivots(self):
        """A special basis on another pivot set still has the RREF's
        canonical basis, not its own groups scaled to integers."""
        system = DimSystem(("L", "T"))
        length, time = DimVector.unit(system, "L"), DimVector.unit(system, "T")
        dims = (length, time, length / time, length * time)
        groups = (Monomial.of(1, 0, "-1/2", "-1/2"), Monomial.of(0, 1, "1/2", "-1/2"))
        public = SpecialPiBasis(base=PiBasis(dims=dims, groups=groups),
                                pivot_indices=(2, 3), free_indices=(0, 1))
        assert special_basis(dims).pivot_indices == (0, 1)
        assert public.canonical.groups == (Monomial.of(-1, 1, 1, 0), Monomial.of(-1, -1, 0, 1))
        assert public.canonical == pi_basis(dims)


class TestBuiltBasesPassPublicValidation:
    """The builders skip the public constructors' validation; every result
    they build must still pass it and equal the publicly built object."""

    @staticmethod
    def _same_as_public(built, public):
        assert public == built
        assert hash(public) == hash(built)
        assert repr(public) == repr(built)

    def _round_trip(self, dims):
        canonical = pi_basis(dims)
        special = special_basis(dims)
        for basis in (canonical, special.base):
            public = PiBasis(dims=basis.dims, groups=basis.groups)
            self._same_as_public(basis, public)
            assert public.row_space == basis.row_space == row_space(eliminate(dimension_matrix(dims[0].system, dims)))
        self._same_as_public(special, SpecialPiBasis(
            base=public, pivot_indices=special.pivot_indices, free_indices=special.free_indices,
        ))
        for psi, pi in ((canonical, special.base), (special.base, canonical)):
            t = transition(psi, pi)
            self._same_as_public(t, Transition(matrix=t.matrix, inverse=t.inverse))

    def test_seeded_systems(self):
        for _, dims in seeded_systems():
            self._round_trip(dims)

    def test_ladder_sizes(self):
        rng = random.Random(43)
        for d, n in ((3, 6), (4, 12), (7, 24), (10, 48)):
            for _ in range(3):
                self._round_trip(_ladder_dims(rng, d, n))


def _builders(dims):
    special = special_basis(dims)
    return pi_basis(dims), special.base, special.canonical


def _scanned_block(basis):
    """The free-slot block scanned from the groups, as a public basis has it."""
    return PiBasis.free_block.func(basis)


_LADDER = ((3, 6), (4, 12), (7, 24), (10, 48))


class TestKeptFreeBlock:
    """The builders keep the free-slot block they build; `transition` reads
    it, and gives what it gives for the same groups as public bases."""

    @staticmethod
    def _problems():
        for _, dims in seeded_systems():
            yield dims
        rng = random.Random(89)
        for d, n in _LADDER:
            yield _ladder_dims(rng, d, n)

    def test_kept_block_is_the_scanned_block(self):
        for dims in self._problems():
            for basis in _builders(dims):
                assert "free_block" in basis.__dict__
                assert basis.free_block == _scanned_block(basis)
                assert all(type(v) is int for row in basis.free_block for _, v in row)

    def test_transitions_equal_those_of_public_bases(self):
        rng = random.Random(97)
        for dims in self._problems():
            bases = list(_builders(dims))
            bases += [PiBasis(dims=dims, groups=b.groups) for b in bases[:2]]
            if 0 < bases[0].r <= 6:
                changed = _apply_change(random_invertible(rng, bases[0].r), bases[0].groups)
                bases.append(PiBasis(dims=dims, groups=changed))
            public = [PiBasis(dims=dims, groups=b.groups) for b in bases]
            for i, psi in enumerate(bases):
                for j, pi in enumerate(bases):
                    t, expected = transition(psi, pi), transition(public[i], public[j])
                    assert t == expected and repr(t) == repr(expected), (i, j)

    def test_pickled_builder_bases_transition_identically(self):
        rng = random.Random(101)
        for d, n in _LADDER:
            canonical, special, _ = _builders(_ladder_dims(rng, d, n))
            copies = [pickle.loads(pickle.dumps(b)) for b in (canonical, special)]
            assert copies == [canonical, special]
            assert [c.free_block for c in copies] == [canonical.free_block, special.free_block]
            for psi, pi in ((0, 1), (1, 0)):
                t = transition(copies[psi], copies[pi])
                expected = transition((canonical, special)[psi], (canonical, special)[pi])
                assert t == expected and repr(t) == repr(expected)


@pytest.mark.parametrize("d,n", _LADDER)
def test_builder_transition_scans_no_group_and_divides_no_fractions(d, n, rref_calls, monkeypatch):
    """A count-based guard on the ladder's exact algebra: a builder pair's
    transition reads the kept blocks, with no scan, no Fraction division
    and no elimination."""
    bases = _builders(_ladder_dims(random.Random(103 + d), d, n))
    assert all("free_block" in b.__dict__ for b in bases)

    def scan(basis):
        raise AssertionError("free-slot block scanned")

    raising = cached_property(scan)
    raising.__set_name__(PiBasis, "free_block")
    monkeypatch.setattr(PiBasis, "free_block", raising)
    divisions = []
    true_div = Fraction.__truediv__

    def counting(a, b):
        divisions.append((a, b))
        return true_div(a, b)

    monkeypatch.setattr(Fraction, "__truediv__", counting)
    del rref_calls[:]
    for psi in bases:
        for pi in bases:
            transition(psi, pi)
    assert divisions == []
    assert rref_calls == []


class TestBuiltFromLists:
    """The public constructors keep sequence fields as tuples, so a basis
    built from lists is the basis built from tuples."""

    def test_list_fields_equal_the_built_basis(self):
        _, dims = mass_spring_dims()
        built = pi_basis(dims)
        public = PiBasis(dims=list(dims), groups=list(built.groups))
        assert public == built and hash(public) == hash(built)
        assert type(public.dims) is tuple and type(public.groups) is tuple
        special = special_basis(dims)
        from_lists = SpecialPiBasis(base=special.base, pivot_indices=list(special.pivot_indices),
                                    free_indices=list(special.free_indices))
        assert from_lists == special and hash(from_lists) == hash(special)
        assert type(from_lists.pivot_indices) is tuple and type(from_lists.free_indices) is tuple

    def test_transition_takes_a_basis_built_from_lists(self):
        system = DimSystem(("L", "T"))
        L, T = DimVector.unit(system, "L"), DimVector.unit(system, "T")
        dims = [L, T, L]
        pb = PiBasis(dims=list(dims), groups=list(pi_basis(dims).groups))
        t = transition(pb, special_basis(dims).base)
        assert t == transition(pi_basis(dims), special_basis(dims).base)
