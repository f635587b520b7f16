import math
import random
from fractions import Fraction

import pytest

from piforge.core import (
    DimSystem,
    DimVector,
    Monomial,
    Quantity,
    coordinate,
    dim_combine,
    dimension_matrix,
    format_magnitude,
    project,
    qty_combine,
)
from piforge.errors import (
    ArityMismatchError,
    DimensionMismatchError,
    SystemMismatchError,
)
from piforge.exactlin import QMatrix
from piforge.pigroups import pi_basis

from support import mass_spring_dims, kinematics_dims, random_dims, random_quantities


@pytest.fixture
def mlt():
    return DimSystem(("M", "L", "T"))


def test_dim_system_rejects_duplicates_and_empties():
    with pytest.raises(ValueError):
        DimSystem(("M", "M"))
    with pytest.raises(ValueError):
        DimSystem(())
    with pytest.raises(ValueError):
        DimSystem(("M", ""))


def test_dim_vector_arithmetic(mlt):
    length = DimVector.unit(mlt, "L")
    time = DimVector.unit(mlt, "T")
    velocity = length / time
    assert velocity.exponents == (Fraction(0), Fraction(1), Fraction(-1))
    assert (velocity * time) == length
    assert (length ** Fraction(1, 2)).exponents[1] == Fraction(1, 2)
    assert DimVector.zero(mlt).is_zero()
    assert str(length / time**2) == "L*T^-2"
    assert str(DimVector.zero(mlt)) == "1"


def test_cross_system_operations_are_errors(mlt):
    other = DimSystem(("M", "L"))
    with pytest.raises(SystemMismatchError):
        DimVector.unit(mlt, "M") * DimVector.unit(other, "M")


class TestTupleFieldsFromLists:
    """A field annotated as a tuple holds a tuple, so a value built from a
    list equals, hashes as and combines with one built from a tuple."""

    def test_list_built_system_combines_with_a_tuple_built_one(self):
        listed, tupled = DimSystem(["M", "L"]), DimSystem(("M", "L"))
        assert listed.names == ("M", "L") and hash(listed) == hash(tupled)
        product = DimVector.of(listed, M=1) * DimVector.of(tupled, L=1)
        assert product == DimVector.of(tupled, M=1, L=1)

    def test_pi_basis_over_a_list_built_and_a_tuple_built_system(self):
        dims = [DimVector.of(DimSystem(["M", "L"]), M=1), DimVector.of(DimSystem(("M", "L")), M=2)]
        assert pi_basis(dims).groups == (Monomial.of(-2, 1),)

    def test_exponent_lists_are_stored_as_tuples(self, mlt):
        assert hash(Monomial([Fraction(1)])) == hash(Monomial((Fraction(1),)))
        vector = DimVector(mlt, [Fraction(1), Fraction(0), Fraction(-2)])
        assert vector.exponents == (Fraction(1), Fraction(0), Fraction(-2))
        assert vector == DimVector.of(mlt, M=1, T=-2)


def test_project_reads_the_dimension_field(mlt):
    m_dim = DimVector.unit(mlt, "M")
    assert project(Quantity(math.log(3.0), m_dim)) == m_dim
    assert project(Quantity(0.0, DimVector.zero(mlt))).is_zero()
    accel = DimVector.of(mlt, L=1, T=-2)
    assert project(Quantity(math.log(9.81), accel)) == accel


def test_quantity_requires_positive_finite_magnitude(mlt):
    dim = DimVector.unit(mlt, "M")
    with pytest.raises(ValueError):
        Quantity.from_magnitude(0.0, dim)
    with pytest.raises(ValueError):
        Quantity.from_magnitude(-2.0, dim)
    with pytest.raises(ValueError):
        Quantity(math.inf, dim)


def test_close_to_uses_log_space_tolerance(mlt):
    dim = DimVector.unit(mlt, "L")
    a = Quantity.from_magnitude(2.0, dim)
    assert a.close_to(Quantity(a.log_magnitude + 5e-10, dim))
    assert not a.close_to(Quantity(a.log_magnitude + 5e-9, dim))
    assert not a.close_to(Quantity(a.log_magnitude, DimVector.unit(mlt, "T")))
    assert a.close_to(Quantity(a.log_magnitude + 5e-9, dim), tol=1e-8)


def test_close_to_refuses_a_nan_tol(mlt):
    """A NaN tol would make every quantity, itself included, not close."""
    q = Quantity.from_magnitude(2.0, DimVector.unit(mlt, "L"))
    assert q.close_to(q)
    with pytest.raises(ValueError, match="tol must be a number"):
        q.close_to(q, tol=math.nan)


def test_close_to_refuses_a_negative_tol(mlt):
    """No quantity, itself included, is within a negative tol."""
    q = Quantity.from_magnitude(2.0, DimVector.unit(mlt, "L"))
    assert q.close_to(q, tol=0.0)
    with pytest.raises(ValueError, match="tol must be at least 0"):
        q.close_to(q, tol=-1.0)


def test_quantity_str_prints_the_magnitude_from_its_log(mlt):
    speed = DimVector.of(mlt, L=1, T=-1)
    assert str(Quantity.from_magnitude(2.5, speed)) == "2.5 [L*T^-1]"
    # exp(2000) overflows a float; the log still prints
    assert str(Quantity(2000.0, speed)) == f"{format_magnitude(2000.0)} [L*T^-1]"
    assert format_magnitude(2000.0).startswith("3.88118")


def test_magnitude_round_trip_15_digits(mlt):
    dim = DimVector.unit(mlt, "L")
    for text in ("1", "2.5", "185200", "0.51444444444444444", "9.80665"):
        q = Quantity.from_magnitude(float(text), dim)
        assert format(q.magnitude, ".15g") == format(float(text), ".15g")


class TestCombinations:
    def test_product_law(self, mlt):
        length = DimVector.unit(mlt, "L")
        time = DimVector.unit(mlt, "T")
        p = Monomial.of(1, 1)
        result = qty_combine(p, [Quantity(math.log(2), length), Quantity(math.log(3), time)])
        assert result.log_magnitude == pytest.approx(math.log(6), abs=1e-12)
        assert result.dim == length * time

    def test_zero_input_returns_the_identity(self, mlt):
        result = qty_combine(Monomial.of(), [], system=mlt)
        assert result.log_magnitude == 0.0
        assert result.dim.is_zero()

    def test_kernel_vector_annihilates_mass_spring(self):
        system, dims = mass_spring_dims()
        xs = [Quantity(0.0, dim) for dim in dims]
        result = qty_combine(Monomial.of(-1, 1, 2), xs)
        assert result.log_magnitude == 0.0
        assert result.dim.is_zero()

    def test_dim_combine_matches_examples(self, mlt):
        length = DimVector.unit(mlt, "L")
        time = DimVector.unit(mlt, "T")
        assert dim_combine(Monomial.of(1, 1), [length, time]) == length * time
        system, dims = mass_spring_dims()
        assert dim_combine(Monomial.of(-1, 1, 2), dims).is_zero()
        zeros = [DimVector.zero(mlt)] * 3
        assert dim_combine(Monomial.of(2, -5, Fraction(1, 3)), zeros).is_zero()

    def test_arity_mismatch(self, mlt):
        with pytest.raises(ArityMismatchError):
            qty_combine(Monomial.of(1, 1), [Quantity(0.0, DimVector.zero(mlt))])

    def test_homomorphism_law(self):
        rng = random.Random(23)
        for _ in range(100):
            system, dims = random_dims(rng, max_n=5, max_d=3)
            xs = random_quantities(rng, dims)
            ys = random_quantities(rng, dims)
            p = Monomial(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in dims))
            pointwise = qty_combine(p, [x * y for x, y in zip(xs, ys)])
            split = qty_combine(p, xs) * qty_combine(p, ys)
            assert pointwise.log_magnitude == pytest.approx(split.log_magnitude, abs=1e-12)
            assert pointwise.dim == split.dim

    def test_scalar_law(self):
        rng = random.Random(29)
        for _ in range(100):
            system, dims = random_dims(rng, max_n=5, max_d=3)
            xs = random_quantities(rng, dims)
            beta = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            p = Monomial(tuple(Fraction(rng.randint(-3, 3)) for _ in dims))
            powered = qty_combine(p, [x**beta for x in xs])
            after = qty_combine(p, xs) ** beta
            assert powered.log_magnitude == pytest.approx(after.log_magnitude, abs=1e-12)
            assert powered.dim == after.dim

    def test_projection_commutes_exactly(self):
        rng = random.Random(31)
        for _ in range(100):
            system, dims = random_dims(rng, max_n=5, max_d=3)
            xs = random_quantities(rng, dims)
            p = Monomial(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in dims))
            assert project(qty_combine(p, xs)) == dim_combine(p, [project(x) for x in xs])

    def test_projections_select_inputs(self, mlt):
        dims = [DimVector.unit(mlt, n) for n in ("M", "L", "T")]
        xs = [Quantity(float(i), d) for i, d in enumerate(dims)]
        for i in range(3):
            picked = qty_combine(Monomial.projection(i, 3), xs)
            assert picked == xs[i]


class TestCoordinate:
    def test_same_value_gives_one(self, mlt):
        x = Quantity(math.log(4.2), DimVector.unit(mlt, "L"))
        assert coordinate(x, x) == pytest.approx(1.0, rel=1e-15)

    def test_simple_ratio(self, mlt):
        dim = DimVector.unit(mlt, "L")
        x = Quantity(math.log(6), dim)
        s = Quantity(math.log(2), dim)
        assert coordinate(x, s) == pytest.approx(3.0, rel=1e-12)

    def test_knot_hour_in_centimetres(self, registry):
        knot_hr = registry.quantity("knot") * registry.quantity("hr")
        cm = registry.quantity("cm")
        assert coordinate(knot_hr, cm) == pytest.approx(185200.0, rel=1e-9)

    def test_dimension_mismatch(self, mlt):
        x = Quantity(0.0, DimVector.unit(mlt, "L"))
        s = Quantity(0.0, DimVector.unit(mlt, "T"))
        with pytest.raises(DimensionMismatchError):
            coordinate(x, s)

    def test_reconstruction(self):
        rng = random.Random(37)
        for _ in range(100):
            system, dims = random_dims(rng, max_n=1, max_d=3)
            x, = random_quantities(rng, dims)
            s = Quantity(rng.uniform(-5, 5), dims[0])
            a = coordinate(x, s)
            rebuilt = math.exp(s.log_magnitude) * a
            assert rebuilt == pytest.approx(x.magnitude, rel=1e-12)


class TestDimensionMatrix:
    def test_mass_spring_transcription(self):
        system, dims = mass_spring_dims()
        m = dimension_matrix(system, dims)
        assert m == QMatrix.from_rows([[1, 1, 0], [0, -2, 1]])

    def test_dimensionless_gives_zero_column(self, mlt):
        m = dimension_matrix(mlt, [DimVector.zero(mlt)])
        assert m == QMatrix.zero(3, 1)

    def test_velocity_transcription(self):
        system, dims = kinematics_dims()
        m = dimension_matrix(system, dims)
        assert m == QMatrix.from_rows([[1, 0, 1], [0, 1, -1]])
