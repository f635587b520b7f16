import random
from fractions import Fraction

import pytest

from piforge import cli, exactlin, pigroups
from piforge.core import DimSystem, DimVector, Monomial, dim_combine, dimension_matrix
from piforge.errors import NotABasisError
from piforge.exactlin import QMatrix, rref
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


def _ladder_dims(rng, d, n):
    """The benchmark ladder's problem shape: exponents from -2, -1, 1, 2 at
    density 1/2, every variable with some dimension."""
    system = DimSystem(tuple(f"D{i}" for i in range(d)))
    dims = []
    while len(dims) < n:
        exps = tuple(
            Fraction(rng.choice((-2, -1, 1, 2))) if rng.random() < 0.5 else Fraction(0)
            for _ in range(d)
        )
        if any(exps):
            dims.append(DimVector(system, exps))
    return tuple(dims)


class TestEliminationCount:
    """Deterministic guard on the number of eliminations per call."""

    @pytest.fixture
    def rref_calls(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append((m.rows, m.cols))
            return rref(m)

        monkeypatch.setattr(exactlin, "rref", counting)
        monkeypatch.setattr(pigroups, "rref", counting)
        return calls

    def test_special_basis_eliminates_once_besides_validation(self, rref_calls):
        dims = _ladder_dims(random.Random(31), 10, 48)
        sb = special_basis(dims)
        built = len(rref_calls)
        PiBasis(dims=dims, groups=sb.base.groups)
        validation = len(rref_calls) - built
        assert built == 1
        assert validation == 2

    @pytest.mark.parametrize("builder", [pi_basis, special_basis])
    def test_builders_eliminate_once(self, rref_calls, builder):
        rng = random.Random(41)
        for d, n in ((10, 48), (7, 24), (4, 12), (3, 6), (3, 3)):
            dims = _ladder_dims(rng, d, n)
            del rref_calls[:]
            builder(dims)
            assert len(rref_calls) == 1, (d, n)

    def test_cli_pi_eliminates_once_per_basis(self, rref_calls, capsys):
        assert cli.main(["pi", "--spec", str(FIXTURES / "electronics.json")]) == 0
        assert len(rref_calls) == 2

    def test_transition_eliminates_at_most_twice(self, rref_calls):
        rng = random.Random(37)
        for d, n in ((10, 48), (7, 24), (4, 12), (3, 6), (3, 3)):
            dims = _ladder_dims(rng, d, n)
            canonical = pi_basis(dims)
            special = special_basis(dims).base
            for psi, pi in ((canonical, special), (special, canonical)):
                del rref_calls[:]
                transition(psi, pi)
                assert len(rref_calls) <= 2, (d, n, canonical.r)


class TestBuiltBasesPassPublicValidation:
    """The builders skip the public constructors' validation; every result
    they build must still pass it and equal the publicly built object."""

    @staticmethod
    def _same_as_public(built, public):
        assert public == built
        assert hash(public) == hash(built)

    def _round_trip(self, dims):
        canonical = pi_basis(dims)
        special = special_basis(dims)
        for basis in (canonical, special.base):
            public = PiBasis(dims=basis.dims, groups=basis.groups)
            self._same_as_public(basis, public)
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
