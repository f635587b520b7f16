"""Exact dimensional analysis: consistency checking, pi-group bases,
nondimensionalization, equivalence of variable tuples, and randomized
dimensional-invariance fuzzing.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a caller, the CLI
included, pays only for the modules it reaches.
"""

import importlib

__version__ = "0.1.0"

# Each public name -> the module that defines it.
_MODULE_OF = {
    **dict.fromkeys(("DimSystem", "DimVector", "Monomial", "Quantity", "coordinate", "dim_combine",
                     "dimension_matrix", "project", "qty_combine"), "core"),
    **dict.fromkeys(("QMatrix", "Rational", "invert", "kernel_basis", "rank", "rref", "solve",
                     "solve_many"), "exactlin"),
    **dict.fromkeys(("InvarianceReport", "Rescaling", "fuzz_invariance", "rescale"), "harness"),
    **dict.fromkeys(("EquivalenceVerdict", "PiValues", "VerdictReason", "canonical_rep",
                     "equivalent", "nondimensionalize", "pi_values", "strip_units"), "nondim"),
    **dict.fromkeys(("PiBasis", "SpecialPiBasis", "Transition", "is_pi_basis", "pi_basis",
                     "special_basis", "transition"), "pigroups"),
    **dict.fromkeys(("ConsistencyReport", "UnitRegistry", "express", "fundamental_basis",
                     "is_consistent"), "units"),
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
