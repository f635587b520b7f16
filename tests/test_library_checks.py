"""The checks the public constructors and functions make at their boundary:
each malformed input raises its documented error class with its message."""

import math
from fractions import Fraction

import pytest

from piforge.core import DimSystem, DimVector, Monomial, Quantity, dim_combine
from piforge.dsl import BinOp, Compare, Const, Pow, ProblemSpec, Var, evaluate
from piforge.errors import (
    DependentBaseError,
    DimensionMismatchError,
    NotABasisError,
    SystemMismatchError,
)
from piforge.exactlin import QMatrix, as_rational, invert
from piforge.harness import Rescaling, fuzz_invariance, rescale
from piforge.nondim import (
    EquivalenceVerdict,
    VerdictReason,
    nondimensionalize,
    preimage,
)
from piforge.pigroups import PiBasis, SpecialPiBasis, Transition, is_pi_basis, pi_basis, special_basis
from piforge.units import UnitRegistry, express

L = DimSystem(("L",))
ML = DimSystem(("M", "L"))
LEN = DimVector.unit(L, "L")
THREE = (LEN, LEN, LEN)
SPECIAL = special_basis(THREE)  # pivot slot 0; groups x1/x0 and x2/x0
REF = [Quantity(0.0, LEN)] * 3
DEPENDENT = (Monomial.of(1, -1, 0), Monomial.of(2, -2, 0))

CASES = {
    "dependent-groups": (lambda: PiBasis(THREE, DEPENDENT), NotABasisError,
                         "groups are linearly dependent"),
    "indices-not-a-partition": (lambda: SpecialPiBasis(SPECIAL.base, (0, 1), (1, 2)),
                                NotABasisError, "pivot and free indices must partition the slots"),
    "coefficient-at-another-free-slot": (
        lambda: SpecialPiBasis(PiBasis(THREE, (Monomial.of(-1, 1, 0), Monomial.of(-2, 1, 1))), (0,), (1, 2)),
        NotABasisError, "group for free slot 2 has coefficient 1 at free slot 1",
    ),
    "transition-inverse-wrong": (
        lambda: Transition(QMatrix.identity(2), QMatrix.from_rows([[1, 1], [0, 1]])),
        NotABasisError, "transition matrix and inverse do not multiply to identity",
    ),
    "magnitude-bool": (lambda: Quantity.from_magnitude(True, LEN), ValueError,
                       "magnitude must be a finite positive real, got True"),
    "magnitude-string": (lambda: Quantity.from_magnitude("2", LEN), ValueError,
                         "magnitude must be a finite positive real, got '2'"),
    "magnitude-int-beyond-floats": (lambda: Quantity.from_magnitude(10**400, LEN), ValueError,
                                    f"magnitude must be a finite positive real, got {10**400}"),
    "rescaling-length": (lambda: Rescaling(L, (0.0, 0.0)), ValueError,
                         "one factor per fundamental dimension required"),
    "rescaling-not-finite": (lambda: Rescaling(L, (math.inf,)), ValueError,
                             "rescaling factors must be finite and nonzero"),
    "rescaling-factor-zero": (lambda: Rescaling.from_factors(L, (0.0,)), ValueError,
                              "rescaling factors must be positive"),
    "rescale-across-systems": (lambda: rescale(REF, Rescaling.identity(ML)), DimensionMismatchError,
                               "rescaling and quantities use different systems"),
    "dim-combine-two-systems": (lambda: dim_combine(Monomial.of(1, 1), [LEN, DimVector.unit(ML, "L")]),
                                SystemMismatchError, "dimension span multiple dimension systems"),
    "dim-combine-empty-no-system": (lambda: dim_combine(Monomial.of(), []), ValueError,
                                    "an empty dimension list needs an explicit dimension system"),
    "express-empty-base": (lambda: express([], []), DependentBaseError, "an empty base spans nothing"),
    "registry-unit-other-system": (
        lambda: UnitRegistry(L, {"m": Quantity(0.0, DimVector.unit(ML, "L"))}),
        SystemMismatchError, "unit 'm' is not over ('L',)",
    ),
    "preimage-wrong-count": (lambda: preimage(SPECIAL, REF, [0.0]), DimensionMismatchError,
                             "1 pi-values for r = 2"),
    "g-wrong-count": (lambda: nondimensionalize(lambda xs: True, SPECIAL, REF)(1.0, 2.0, 3.0),
                      DimensionMismatchError, "3 pi-values for r = 2"),
    "verdict-flag-and-reason": (lambda: EquivalenceVerdict(True, VerdictReason.PI_MISMATCH),
                                ValueError, "verdict flag and reason disagree"),
    "invert-not-square": (lambda: invert(QMatrix.from_rows([[1, 2, 3], [4, 5, 6]])), ValueError,
                          "inversion requires a square matrix"),
    "as-rational-float": (lambda: as_rational(0.5), TypeError, "expected an exact rational, got float"),
    # values the library cannot run, refused where they are built
    "dim-vector-float-exponent": (lambda: pi_basis([DimVector(L, (0.5,)), LEN]), TypeError,
                                  "expected an exact rational, got float"),
    "dim-vector-string-exponent": (lambda: pi_basis([DimVector(L, ("1/2",)), LEN]), TypeError,
                                   "expected an exact rational, got str"),
    "power-float-exponent": (lambda: Pow(Var("x"), 0.5), TypeError,
                             "expected an exact rational, got float"),
    "constant-zero": (
        lambda: evaluate(Compare("<", Var("x"), BinOp("*", Const(0.0), Var("x"))), {"x": REF[0]}),
        ValueError, "constants must be finite and strictly positive, got 0.0",
    ),
    "constant-nan": (lambda: Const(math.nan), ValueError,
                     "constants must be finite and strictly positive, got nan"),
    "constant-inf": (lambda: Const(math.inf), ValueError,
                     "constants must be finite and strictly positive, got inf"),
    "power-exponent-beyond-floats": (
        lambda: fuzz_invariance(ProblemSpec(L, ("x",), (LEN,), Compare(
            "<", Var("x"), Pow(Var("x"), Fraction(10**400))), "x < x^(10^400)"), 10),
        ValueError, f"exponent {10**400} lies beyond the float range, about 1.8e+308",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_check_raises_its_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_exact_exponents_are_kept_as_given():
    exponents = DimVector(ML, (2, Fraction(-1, 2))).exponents
    assert exponents == (2, Fraction(-1, 2)) and [type(e) for e in exponents] == [int, Fraction]


def test_dependent_groups_are_no_pi_basis():
    assert not is_pi_basis(DEPENDENT, THREE)
