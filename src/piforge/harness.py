"""Randomized dimensional-invariance testing.

A `Rescaling` multiplies every quantity by the product of fundamental factors
raised to that quantity's exponents — exactly what switching between two
consistent unit systems does to the numbers. `fuzz_invariance` drives a
relation with random bindings and random rescalings and reports the first
trial on which the truth value changes, with full reproduction data.

Failures are definitive; passes are evidence, not proof — the verdict is
necessarily one-sided, and the CLI report says so.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .core import DEFAULT_TOL, DimSystem, Quantity, format_magnitude, magnitude_or_limit
from .dsl import (
    BOOL,
    Compare,
    ProblemSpec,
    Var,
    evaluate,
    free_variables,
    typecheck,
)
from .errors import (
    DimensionError,
    DimensionMismatchError,
    EvaluationError,
    SpecError,
)

_LOG_MAG_RANGE = (math.log(1e-3), math.log(1e3))
_LOG_FACTOR_RANGE = (math.log(1e-2), math.log(1e2))
_SHRINK_ROUNDS = 20


@dataclass(frozen=True)
class Rescaling:
    """One positive factor per fundamental dimension, in log space."""

    system: DimSystem
    log_factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.log_factors) != self.system.size:
            raise ValueError("one factor per fundamental dimension required")
        if any(not math.isfinite(f) for f in self.log_factors):
            raise ValueError("rescaling factors must be finite and nonzero")

    @classmethod
    def from_factors(cls, system: DimSystem, factors: Sequence[float]) -> "Rescaling":
        if any(f <= 0 for f in factors):
            raise ValueError("rescaling factors must be positive")
        return cls(system, tuple(math.log(f) for f in factors))

    @classmethod
    def identity(cls, system: DimSystem) -> "Rescaling":
        return cls(system, (0.0,) * system.size)

    @property
    def factors(self) -> tuple[float, ...]:
        return tuple(math.exp(f) for f in self.log_factors)


def rescale(xs: Sequence[Quantity], r: Rescaling) -> list[Quantity]:
    """Multiply each quantity by prod_j factor_j^(exponent of fundamental j)."""
    out = []
    for x in xs:
        if x.dim.system != r.system:
            raise DimensionMismatchError("rescaling and quantities use different systems")
        shift = sum(
            float(e) * lf for e, lf in zip(x.dim.exponents, r.log_factors) if e != 0
        )
        out.append(Quantity(x.log_magnitude + shift, x.dim))
    return out


@dataclass(frozen=True)
class Counterexample:
    """A failing trial. Each binding is kept as its log magnitude, which stays
    finite where the magnitude lies beyond the float range."""

    trial_index: int
    log_bindings: dict[str, float]
    factors: dict[str, float]
    before: bool
    after: bool

    @property
    def bindings(self) -> dict[str, float]:
        """The binding magnitudes as floats: inf or 0.0 beyond the float range."""
        return {name: magnitude_or_limit(v) for name, v in self.log_bindings.items()}


@dataclass(frozen=True)
class InvarianceReport:
    trials: int
    passed: int
    seed: int
    counterexample: Counterexample | None

    def __post_init__(self):
        if (self.counterexample is None) != (self.passed == self.trials):
            raise ValueError("counterexample must be present exactly when a trial failed")


def _trial_rng(seed: int, trial: int) -> random.Random:
    """Independent deterministic generator per (seed, trial)."""
    digest = hashlib.blake2b(f"{seed}:{trial}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _equality_seed_target(spec: ProblemSpec) -> tuple[str, object] | None:
    """(variable, other side) when the relation is `v = expr` with v absent
    from expr — the one shape where random bindings would never land on the
    truth set, so each trial solves for v instead."""
    node = spec.relation
    if not (isinstance(node, Compare) and node.op == "="):
        return None
    for side, other in ((node.left, node.right), (node.right, node.left)):
        if isinstance(side, Var) and side.name not in free_variables(other):
            return side.name, other
    return None


def fuzz_invariance(
    spec: ProblemSpec,
    trials: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> InvarianceReport:
    """Fuzz a relation for dimensional invariance.

    Per trial: draw log-uniform magnitudes in [1e-3, 1e3] per variable and a
    log-uniform rescaling factor in [1e-2, 1e2] per fundamental; pass iff the
    relation's truth value survives the rescaling. The first failing trial is
    shrunk (factor bisection toward 1) and reported.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    try:
        result_type = typecheck(spec.relation, spec.env, allow_mixed_comparisons=True)
    except DimensionError as exc:
        raise SpecError(f"relation is ill-typed: {exc}") from exc
    if result_type is not BOOL:
        raise SpecError("relation does not evaluate to a truth value")

    names = spec.variable_names
    dims = spec.variable_dims
    seed_target = _equality_seed_target(spec)

    passed = 0
    counterexample: Counterexample | None = None
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        bindings = {
            name: Quantity(rng.uniform(*_LOG_MAG_RANGE), dim)
            for name, dim in zip(names, dims)
        }
        if seed_target is not None:
            vname, other = seed_target
            try:
                value = evaluate(other, bindings, tol=tol)
                bindings[vname] = Quantity(value.log_magnitude, spec.env[vname])
            except EvaluationError:
                pass
        log_factors = tuple(
            rng.uniform(*_LOG_FACTOR_RANGE) for _ in range(spec.system.size)
        )
        rescaling = Rescaling(spec.system, log_factors)

        before = evaluate(spec.relation, bindings, tol=tol)
        after = _evaluate_rescaled(spec, bindings, rescaling, tol)
        if before == after:
            passed += 1
        elif counterexample is None:
            shrunk = _shrink(spec, bindings, rescaling, before, tol)
            counterexample = Counterexample(
                trial_index=trial,
                log_bindings={n: bindings[n].log_magnitude for n in names},
                factors=dict(zip(spec.system.names, shrunk.factors)),
                before=before,
                after=_evaluate_rescaled(spec, bindings, shrunk, tol),
            )
    return InvarianceReport(
        trials=trials, passed=passed, seed=seed, counterexample=counterexample
    )


def _evaluate_rescaled(spec, bindings, rescaling, tol) -> bool:
    values = [bindings[n] for n in spec.variable_names]
    rescaled = rescale(values, rescaling)
    return evaluate(spec.relation, dict(zip(spec.variable_names, rescaled)), tol=tol)


def _shrink(spec, bindings, rescaling, before, tol) -> Rescaling:
    """Bisect each factor toward 1 while the violation persists."""
    log_factors = list(rescaling.log_factors)
    for _ in range(_SHRINK_ROUNDS):
        improved = False
        for j in range(len(log_factors)):
            if log_factors[j] == 0.0:
                continue
            candidate = log_factors.copy()
            candidate[j] /= 2
            trial = Rescaling(spec.system, tuple(candidate))
            if _evaluate_rescaled(spec, bindings, trial, tol) != before:
                log_factors = candidate
                improved = True
        if not improved:
            break
    return Rescaling(spec.system, tuple(log_factors))


def report_to_dict(report: InvarianceReport) -> dict:
    """The report JSON shape: trials, passed, seed, counterexample | null.

    Counterexample magnitudes and factors are decimals with 15 significant
    digits; a binding magnitude beyond the float range is printed from its
    log (`format_magnitude`).
    """
    ce = report.counterexample
    return {
        "trials": report.trials,
        "passed": report.passed,
        "seed": report.seed,
        "counterexample": None
        if ce is None
        else {
            "bindings": {k: format_magnitude(v) for k, v in ce.log_bindings.items()},
            "factors": {k: f"{v:.15g}" for k, v in ce.factors.items()},
            "before": ce.before,
            "after": ce.after,
        },
    }
