"""The orbit test: a log vector is reachable by rescaling the fundamentals
exactly when it lies in the row space of the dimension matrix, and
`is_consistent` and `equivalent` both decide by its distance from that space,
whatever the basis and whatever the slot order."""

import math
import random

import pytest

from piforge.core import DEFAULT_TOL, Quantity, dimension_matrix, orbit_gap, row_space
from piforge.exactlin import kernel_basis
from piforge.nondim import VerdictReason, equivalent
from piforge.pigroups import PiBasis, pi_basis, special_basis
from piforge.units import is_consistent

from support import apply_change_of_basis, random_invertible, seeded_systems

SYSTEMS = 200


def _along(rng, system, dims):
    """lambda^T D for random fundamental logs lambda: a shift in the row space."""
    lam = [rng.uniform(-2.0, 2.0) for _ in system.names]
    return [sum(float(e) * v for e, v in zip(w.exponents, lam)) for w in dims]


def _unit_kernel_direction(rng, kernel, n):
    """A random unit vector in the kernel of D, which is orthogonal to its row space."""
    weights = [rng.uniform(-1.0, 1.0) for _ in kernel]
    k = [math.fsum(w * float(v[j]) for w, v in zip(weights, kernel)) for j in range(n)]
    norm = math.hypot(*k)
    return [a / norm for a in k]


def near_orbit_cases():
    """(system, dims, shift, expected) over the seeded systems with r >= 1:
    shift lies at 0.5*tol (expected True) or 2*tol (False) from the row space."""
    rng = random.Random(131)
    for system, dims in seeded_systems(SYSTEMS):
        kernel = kernel_basis(dimension_matrix(system, dims))
        if not kernel:
            continue
        direction = _unit_kernel_direction(rng, kernel, len(dims))
        along = _along(rng, system, dims)
        for scale in (0.5, 2.0):
            shift = [a + scale * DEFAULT_TOL * k for a, k in zip(along, direction)]
            yield system, dims, shift, scale < 1


class TestRowSpace:
    def test_rows_are_orthonormal_and_span_the_rank(self):
        for system, dims in seeded_systems(60):
            rows = row_space(dims)
            rank = len(dims) - len(kernel_basis(dimension_matrix(system, dims)))
            assert len(rows) == rank
            for i, u in enumerate(rows):
                for j, v in enumerate(rows):
                    dot = math.fsum(a * b for a, b in zip(u, v))
                    assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_gap_is_the_distance_from_the_row_space(self):
        rng = random.Random(137)
        for system, dims in seeded_systems(60):
            rows = row_space(dims)
            along = _along(rng, system, dims)
            assert orbit_gap(rows, along) <= 1e-13
            kernel = kernel_basis(dimension_matrix(system, dims))
            if kernel:
                direction = _unit_kernel_direction(rng, kernel, len(dims))
                off = [a + 3.0 * k for a, k in zip(along, direction)]
                assert orbit_gap(rows, off) == pytest.approx(3.0, rel=1e-12)

    def test_full_rank_is_consistent_and_equivalent_at_any_tol(self):
        # no dimensionless product exists, so rounding in the gap cannot
        # make a clash, even at a tol below it
        rng = random.Random(151)
        full_rank = [dims for system, dims in seeded_systems(60)
                     if not kernel_basis(dimension_matrix(system, dims))]
        assert full_rank
        for dims in full_rank:
            xs = [Quantity(rng.uniform(-700.0, 700.0), w) for w in dims]
            ys = [Quantity(rng.uniform(-700.0, 700.0), w) for w in dims]
            for tol in (1e-300, -1.0):
                assert is_consistent(xs, tol=tol).consistent
                assert equivalent(pi_basis(dims), xs, ys, tol=tol).equivalent


class TestNearTol:
    """Shifts at 0.5*tol and 2*tol from the orbit: a test of each basis
    group against tol would judge these by how that group is scaled."""

    def test_equivalent_under_every_basis(self):
        rng = random.Random(139)
        cases = 0
        for _, dims, shift, expected in near_orbit_cases():
            canonical = pi_basis(dims)
            changed = PiBasis(
                dims=canonical.dims,
                groups=apply_change_of_basis(random_invertible(rng, canonical.r), canonical.groups),
            )
            xs = [Quantity(rng.uniform(-40.0, 40.0), w) for w in dims]
            ys = [Quantity(x.log_magnitude - s, x.dim) for x, s in zip(xs, shift)]
            for basis in (canonical, special_basis(dims).base, changed):
                verdict = equivalent(basis, xs, ys)
                assert verdict.equivalent is expected
                if not expected:
                    assert verdict.reason is VerdictReason.PI_MISMATCH
                    assert 0 <= verdict.mismatch_index < basis.r
            cases += 1
        assert cases > 300

    def test_is_consistent_under_slot_permutation(self):
        rng = random.Random(149)
        cases = 0
        for _, dims, shift, expected in near_orbit_cases():
            units = [Quantity(s, w) for s, w in zip(shift, dims)]
            order = rng.sample(range(len(units)), len(units))
            assert is_consistent(units).consistent is expected
            assert is_consistent([units[i] for i in order]).consistent is expected
            cases += 1
        assert cases > 300
