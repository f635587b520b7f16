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
from typing import Sequence

from .core import DEFAULT_TOL, DimSystem, Quantity, check_tol, format_magnitude, magnitude_or_limit
from .dsl import (
    BOOL,
    Compare,
    ProblemSpec,
    Var,
    evaluate,
    free_variables,
    holds,
    log_magnitude,
    typecheck,
)
from .errors import (
    DimensionError,
    DimensionMismatchError,
    EvaluationError,
    SpecError,
    frozen,
)

_LOG_MAG_RANGE = (math.log(1e-3), math.log(1e3))
_LOG_FACTOR_RANGE = (math.log(1e-2), math.log(1e2))
_SHRINK_ROUNDS = 20


@frozen
class Rescaling:
    """One positive factor per fundamental dimension, in log space."""

    system: DimSystem
    log_factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.log_factors) != self.system.size:
            raise ValueError("one factor per fundamental dimension required")
        if not all(map(math.isfinite, self.log_factors)):
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
    system, log_factors = r.system, r.log_factors
    for x in xs:
        dim = x.dim
        if dim.system is not system and dim.system != system:
            raise DimensionMismatchError("rescaling and quantities use different systems")
        out.append(Quantity(x.log_magnitude + dim.log_combine(log_factors), dim))
    return out


@frozen
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


@frozen
class InvarianceReport:
    """`inapplicable` counts the trials whose bindings (drawn or rescaled)
    fell outside the relation's domain; they neither pass nor fail."""

    trials: int
    passed: int
    seed: int
    counterexample: Counterexample | None
    inapplicable: int = 0

    def __post_init__(self):
        failed = self.passed + self.inapplicable < self.trials
        if (self.counterexample is None) == failed:
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
    relation's truth value survives the rescaling. A trial on which either
    evaluation leaves the relation's domain (EvaluationError), or the
    rescaling carries a log magnitude beyond the float range, is counted as
    inapplicable; if every trial is, EvaluationError is raised, since no
    trial tested the relation. The first failing trial is shrunk (factor
    bisection toward 1) and reported; its `after` is worked out again through
    `rescale` and `evaluate` from the report's own bindings.

    The trials run on log magnitudes held as plain floats, shifted exactly as
    `rescale` shifts them, so every check on the spec is made once, here.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    check_tol(tol)
    try:
        result_type = typecheck(spec.relation, spec.env, allow_mixed_comparisons=True)
    except DimensionError as exc:
        raise SpecError(f"relation is ill-typed: {exc}") from exc
    if result_type is not BOOL:
        raise SpecError("relation does not evaluate to a truth value")
    _check_dims(spec)

    relation, names, system = spec.relation, spec.variable_names, spec.system
    seed_target = _equality_seed_target(spec)

    passed = inapplicable = 0
    counterexample: Counterexample | None = None
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        logs = {name: rng.uniform(*_LOG_MAG_RANGE) for name in names}
        if seed_target is not None:
            vname, other = seed_target
            try:
                logs[vname] = log_magnitude(other, logs)
            except EvaluationError:
                pass
        log_factors = [rng.uniform(*_LOG_FACTOR_RANGE) for _ in range(system.size)]

        try:
            before = holds(relation, logs, tol)
            after = holds(relation, _rescaled(spec, logs, log_factors), tol)
        except EvaluationError as exc:
            inapplicable += 1
            out_of_domain = exc
            continue
        if before == after:
            passed += 1
        elif counterexample is None:
            shrunk = Rescaling(system, tuple(_shrink(spec, logs, log_factors, before, tol)))
            bindings = {n: Quantity(logs[n], d) for n, d in zip(names, spec.variable_dims)}
            rescaled = rescale(bindings.values(), shrunk)
            counterexample = Counterexample(
                trial_index=trial,
                log_bindings=logs,
                factors=dict(zip(system.names, shrunk.factors)),
                before=before,
                after=evaluate(relation, dict(zip(names, rescaled)), tol=tol),
            )
    if inapplicable == trials:
        raise EvaluationError(
            f"relation is undefined on all {trials} trials, so nothing was tested "
            f"(last: {out_of_domain})"
        )
    return InvarianceReport(
        trials=trials,
        passed=passed,
        seed=seed,
        counterexample=counterexample,
        inapplicable=inapplicable,
    )


def _check_dims(spec: ProblemSpec) -> None:
    """What `rescale` would find on a spec's variables, found before any
    trial: each dimension is over the spec's system, and each exponent has a
    float form for the shift."""
    for name, dim in zip(spec.variable_names, spec.variable_dims):
        if dim.system is not spec.system and dim.system != spec.system:
            raise DimensionMismatchError("rescaling and quantities use different systems")
        try:
            dim.log_combine((0.0,) * spec.system.size)
        except EvaluationError:
            raise SpecError(
                f"variable {name!r} has a dimension exponent beyond the float range, "
                "about 1.8e+308"
            ) from None


def _rescaled(spec: ProblemSpec, logs: dict[str, float], log_factors) -> dict[str, float]:
    """The log magnitudes after the rescaling, bit for bit as `rescale` gives
    them. A shift that carries one beyond the float range, where `rescale`
    could build no Quantity, leaves the relation's domain: EvaluationError
    names the first such variable."""
    out = {
        name: logs[name] + dim.log_combine(log_factors)
        for name, dim in zip(spec.variable_names, spec.variable_dims)
    }
    # one sum in the common case; the exact test only where the sum is not finite
    if not math.isfinite(sum(out.values())):
        for name, value in out.items():
            if not math.isfinite(value):
                raise EvaluationError(
                    f"the rescaling takes the log magnitude of {name!r} beyond the "
                    "float range, about 1.8e+308"
                )
    return out


def _shrink(spec, logs, log_factors, before, tol) -> list[float]:
    """Bisect each log factor toward 0 while the violation persists. A
    candidate that takes the bindings outside the relation's domain does not
    violate."""
    log_factors = list(log_factors)
    for _ in range(_SHRINK_ROUNDS):
        improved = False
        for j in range(len(log_factors)):
            if log_factors[j] == 0.0:
                continue
            candidate = log_factors.copy()
            candidate[j] /= 2
            try:
                violates = holds(spec.relation, _rescaled(spec, logs, candidate), tol) != before
            except EvaluationError:
                violates = False
            if violates:
                log_factors = candidate
                improved = True
        if not improved:
            break
    return log_factors


def report_to_dict(report: InvarianceReport) -> dict:
    """The report JSON shape: trials, passed, inapplicable (only when
    nonzero), seed, counterexample | null.

    Counterexample magnitudes and factors are decimals with 15 significant
    digits; a binding magnitude beyond the float range is printed from its
    log (`format_magnitude`).
    """
    ce = report.counterexample
    inapplicable = {"inapplicable": report.inapplicable} if report.inapplicable else {}
    return {
        "trials": report.trials,
        "passed": report.passed,
        **inapplicable,
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
