import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piforge.core import dimension_matrix, row_space
from piforge.errors import NoSolutionError, SingularMatrixError
from piforge.exactlin import (
    QMatrix,
    canonical_kernel,
    eliminate,
    free_kernel,
    invert,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_each,
    solve_many,
)

from support import (
    LADDER_SIZES,
    ladder_dims,
    random_matrix,
    random_rational_dims,
    reference_invert,
    reference_rref,
    reference_solve,
    seeded_systems,
)


def F(*args):
    return Fraction(*args)


class TestRref:
    def test_identity(self):
        m = QMatrix.identity(2)
        reduced, pivots, rk = rref(m)
        assert reduced == m
        assert pivots == (0, 1)
        assert rk == 2

    def test_two_independent_rows(self):
        m = QMatrix.from_rows([[1, 1, 0], [0, -2, 1]])
        reduced, pivots, rk = rref(m)
        assert rk == 2
        assert pivots == (0, 1)
        assert reduced.to_rows() == [
            [F(1), F(0), F(1, 2)],
            [F(0), F(1), F(-1, 2)],
        ]

    def test_zero_matrix(self):
        m = QMatrix.zero(3, 3)
        reduced, pivots, rk = rref(m)
        assert reduced == m
        assert pivots == ()
        assert rk == 0

    def test_row_space_preserved(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            reduced, _, rk = rref(m)
            stacked = QMatrix.from_rows(m.to_rows() + reduced.to_rows())
            assert rref(stacked)[2] == rk


class TestKernelBasis:
    def test_hand_elimination_case(self):
        m = QMatrix.from_rows([[1, 1, 0], [0, -2, 1]])
        assert kernel_basis(m) == [(F(-1), F(1), F(2))]

    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(QMatrix.identity(4)) == []

    def test_zero_row_has_full_kernel(self):
        m = QMatrix.zero(1, 3)
        assert kernel_basis(m) == [
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        ]

    def test_vectors_are_primitive_integers(self):
        rng = random.Random(11)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
            for vec in kernel_basis(m):
                assert all(v.denominator == 1 for v in vec)
                from math import gcd

                nonzero = [abs(int(v)) for v in vec if v != 0]
                assert nonzero and gcd(*nonzero) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda rows: st.integers(1, 8).flatmap(
                lambda cols: st.lists(
                    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            )
        )
    )
    def test_rank_nullity_and_exact_annihilation(self, rows):
        m = QMatrix.from_rows(rows)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == m.cols
        zero = (Fraction(0),) * m.rows
        for vec in basis:
            assert m.mul_vec(vec) == zero


class TestSolve:
    def test_identity(self):
        b = [F(3), F(-2, 5)]
        assert solve(QMatrix.identity(2), b) == tuple(b)

    def test_inconsistent_row(self):
        with pytest.raises(NoSolutionError):
            solve(QMatrix.from_rows([[1, 1], [0, 0]]), [1, 1])

    def test_free_variables_pinned_to_zero(self):
        m = QMatrix.from_rows([[1, 1, 0], [0, -2, 1]])
        assert solve(m, [1, 0]) == (F(1), F(0), F(0))

    def test_substitution_reproduces_rhs(self):
        rng = random.Random(13)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            x_true = [rng.randint(-3, 3) for _ in range(m.cols)]
            b = m.mul_vec(x_true)
            x = solve(m, b)
            assert m.mul_vec(x) == b


class TestInvert:
    def test_identity(self):
        assert invert(QMatrix.identity(3)) == QMatrix.identity(3)

    def test_diagonal(self):
        m = QMatrix.from_rows([[2, 0], [0, F(1, 2)]])
        assert invert(m) == QMatrix.from_rows([[F(1, 2), 0], [0, 2]])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            invert(QMatrix.from_rows([[1, 1], [1, 1]]))

    def test_inverse_exact_and_fails_iff_rank_deficient(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            if rank(m) == n:
                assert m.matmul(invert(m)) == QMatrix.identity(n)
                assert invert(m).matmul(m) == QMatrix.identity(n)
            else:
                with pytest.raises(SingularMatrixError):
                    invert(m)


class TestSolveMany:
    def test_zero_rows(self):
        assert solve(QMatrix.zero(0, 3), []) == (F(0), F(0), F(0))
        assert solve_many(QMatrix.zero(0, 2), [[], []]) == [(F(0), F(0))] * 2

    def test_one_inconsistent_right_hand_side_fails_the_call(self):
        m = QMatrix.from_rows([[1, 1], [2, 2], [0, 1]])
        assert solve_many(m, [[1, 2, 0], [2, 4, 1]]) == [(F(1), F(0)), (F(1), F(1))]
        with pytest.raises(NoSolutionError):
            solve_many(m, [[1, 2, 0], [1, 1, 0]])
        # dependent inconsistent right-hand sides share one pivot column
        with pytest.raises(NoSolutionError):
            solve_many(m, [[1, 1, 0], [2, 2, 0]])
        # solve_each marks each one apart and solves the rest
        assert solve_each(m, [[1, 1, 0], [1, 2, 0], [2, 2, 0]]) == [None, (F(1), F(0)), None]

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve_many(QMatrix.identity(2), [[1, 2], [1]])

    def test_equals_one_solve_per_right_hand_side(self):
        rng = random.Random(19)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            bs = [
                m.mul_vec([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.cols)])
                for _ in range(rng.randint(0, 4))
            ]
            assert solve_many(m, bs) == [reference_solve(m, b) for b in bs]

    def test_matches_the_reference_on_rank_deficient_systems(self):
        """Non-square a of rank below min(rows, cols), right-hand sides in
        and out of the column space: None exactly where `reference_solve`
        raises."""
        rng = random.Random(149)
        seen = set()
        for case in range(300):
            cols = rng.randint(0, 6)
            rows = 0 if case % 25 == 0 else rng.choice([n for n in range(1, 7) if n != cols])
            a = self._rank_deficient(rng, rows, cols)
            bs = [
                a.mul_vec([_rational(rng) for _ in range(cols)]) if rng.random() < 0.5
                else [_rational(rng) for _ in range(rows)]
                for _ in range(rng.randint(0, 4))
            ]
            expected = []
            for b in bs:
                try:
                    expected.append(reference_solve(a, b))
                except NoSolutionError:
                    expected.append(None)
            assert solve_each(a, bs) == expected
            if rows == 0:
                seen.add("no rows")
            if not bs:
                seen.add("no right-hand side")
            seen.update("outside" if x is None else "inside" for x in expected)
        assert seen == {"no rows", "no right-hand side", "outside", "inside"}

    @staticmethod
    def _rank_deficient(rng, rows, cols):
        """A rows x cols product through a rank r below min(rows, cols),
        or r = 0 when that minimum is 0."""
        r = rng.randint(0, max(min(rows, cols) - 1, 0))
        left = QMatrix(rows, r, tuple(_rational(rng) for _ in range(rows * r)))
        right = QMatrix(r, cols, tuple(_rational(rng) for _ in range(r * cols)))
        return left.matmul(right)


def _rational(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


class TestFractionReference:
    """The integer-row elimination against Fraction Gauss-Jordan."""

    def test_rref_matches_on_seeded_systems(self):
        for system, dims in seeded_systems():
            m = dimension_matrix(system, dims)
            for matrix in (m, m.transpose()):
                got = rref(matrix)
                assert got == reference_rref(matrix)
                assert all(type(v) is Fraction for v in got[0].entries)

    def test_rref_of_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            m = QMatrix.zero(rows, cols)
            assert rref(m) == reference_rref(m)

    def test_solve_and_invert_match_on_rational_matrices(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = QMatrix.from_rows(
                [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            )
            b = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            try:
                expected = reference_solve(m, b)
            except NoSolutionError:
                with pytest.raises(NoSolutionError):
                    solve(m, b)
            else:
                assert solve(m, b) == expected
            try:
                expected_inverse = reference_invert(m)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    invert(m)
            else:
                assert invert(m) == expected_inverse

    def test_invert_empty(self):
        assert invert(QMatrix.identity(0)) == QMatrix.identity(0)


def _reduction_cases():
    """Dimension matrices from `seeded_systems`, 400 `random_rational_dims`
    systems (zero rows, zero columns, r = 0) and the four ladder sizes, plus
    the empty shapes."""
    for system, dims in seeded_systems():
        yield dimension_matrix(system, dims)
    rng = random.Random(97)
    for _ in range(400):
        system, dims = random_rational_dims(rng, rng.randint(1, 5), rng.randint(1, 9))
        yield dimension_matrix(system, dims)
    for d, n in LADDER_SIZES:
        for _ in range(3):
            dims = ladder_dims(rng, d, n)
            yield dimension_matrix(dims[0].system, dims)
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        yield QMatrix.zero(rows, cols)


def _reference_free_kernel(m):
    reduced, pivots, _ = reference_rref(m)
    kernel = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [F(0)] * m.cols
        vec[free] = F(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced.at(i, free)
        kernel.append(tuple(vec))
    return kernel


def _primitive_scaling(vec):
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [v * scale for v in vec]
    return tuple(v / math.gcd(*(int(x) for x in ints)) for v in ints)


def _reference_row_space(m):
    """Modified Gram-Schmidt, as `core.row_space` runs it, over
    `float(Fraction)` of the reference RREF rows."""
    reduced, _, rank_ = reference_rref(m)
    rows = []
    for i in range(rank_):
        row = [float(v) for v in reduced.row(i)]
        for u in rows:
            c = math.fsum(a * b for a, b in zip(row, u))
            row = [a - c * b for a, b in zip(row, u)]
        norm = math.hypot(*row)
        rows.append(tuple(a / norm for a in row))
    return tuple(rows)


class TestReduction:
    """`eliminate`'s integer rows against the Fraction references."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(m, eliminate(m)) for m in _reduction_cases()]

    def test_reduced_pivots_and_rank_match_the_reference(self, cases):
        for m, reduction in cases:
            reduced, pivot_cols, rank_ = reference_rref(m)
            assert (reduction.pivot_cols, reduction.rank) == (pivot_cols, rank_)
            for i, (row, pc) in enumerate(zip(reduction.int_rows, reduction.pivot_cols)):
                assert tuple(Fraction(v, row[pc]) for v in row) == reduced.row(i)
            assert rref(m) == (reduced, pivot_cols, rank_)
            assert rank(m) == reduction.rank == len(reduction.int_rows)
            assert reduction.shape == (m.rows, m.cols)

    def test_entries_are_fractions_and_pivots_positive(self, cases):
        for m, reduction in cases:
            assert all(type(v) is Fraction for v in rref(m)[0].entries)
            for row, pc in zip(reduction.int_rows, reduction.pivot_cols):
                assert all(type(v) is int for v in row)
                assert row[pc] > 0
                assert math.gcd(*row) == 1

    def test_kernels_match_the_reference(self, cases):
        for m, reduction in cases:
            reference = _reference_free_kernel(m)
            assert free_kernel(reduction) == reference
            canonical = canonical_kernel(reduction)
            assert canonical == [_primitive_scaling(vec) for vec in reference] == kernel_basis(m)
            assert all(type(v) is Fraction for vec in canonical for v in vec)

    def test_row_space_float_for_float(self, cases):
        for m, reduction in cases:
            assert row_space(reduction) == _reference_row_space(m)
