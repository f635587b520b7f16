"""Exact dimensional analysis: consistency checking, pi-group bases,
nondimensionalization, equivalence of variable tuples, and randomized
dimensional-invariance fuzzing."""

from .core import DimSystem, DimVector, Monomial, Quantity, coordinate, dim_combine, dimension_matrix, project, qty_combine
from .exactlin import QMatrix, Rational, invert, kernel_basis, rank, rref, solve, solve_many
from .harness import InvarianceReport, Rescaling, fuzz_invariance, rescale
from .nondim import EquivalenceVerdict, PiValues, VerdictReason, canonical_rep, equivalent, nondimensionalize, pi_values, strip_units
from .pigroups import PiBasis, SpecialPiBasis, Transition, is_pi_basis, pi_basis, special_basis, transition
from .units import ConsistencyReport, UnitRegistry, express, fundamental_basis, is_consistent

__version__ = "0.1.0"

__all__ = [
    "DimSystem", "DimVector", "Monomial", "Quantity",
    "coordinate", "dim_combine", "dimension_matrix", "project", "qty_combine",
    "QMatrix", "Rational", "invert", "kernel_basis", "rank", "rref", "solve", "solve_many",
    "InvarianceReport", "Rescaling", "fuzz_invariance", "rescale",
    "EquivalenceVerdict", "PiValues", "VerdictReason",
    "canonical_rep", "equivalent", "nondimensionalize", "pi_values", "strip_units",
    "PiBasis", "SpecialPiBasis", "Transition", "is_pi_basis", "pi_basis", "special_basis", "transition",
    "ConsistencyReport", "UnitRegistry", "express", "fundamental_basis", "is_consistent",
    "__version__",
]
