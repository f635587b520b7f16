"""Command-line interface.

Subcommands: pi, consistent, verify, equiv, nondim, check. Exit codes follow
one contract everywhere: 0 success/pass, 1 domain negative (inconsistent
units, invariance violation, not equivalent, type error), 2 usage or parse
failure, 141 stdout closed by its reader (128 + SIGPIPE). Output is
deterministic for identical inputs and flags; --json emits exact rationals
as "p/q" strings and magnitudes as decimals with 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# units, harness and nondim are imported by the commands that use them, so
# a call loads only the modules it runs.
from . import dsl, pigroups
from .core import DEFAULT_TOL, DimSystem, DimVector, Quantity, format_magnitude, monomial_text
from .errors import DimensionError, ParseError, PiforgeError

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 0
REGISTRY_ENV = "PIFORGE_REGISTRY"


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _registry_from(args):
    """The unit registry named by --registry or $PIFORGE_REGISTRY, or None."""
    path = args.registry or os.environ.get(REGISTRY_ENV)
    if path is None:
        return None
    from . import units

    return units.UnitRegistry.load(path)


def _into_system(q: Quantity, system: DimSystem, context: str) -> Quantity:
    """Re-express a registry-system quantity in the spec's system by
    fundamental name — an explicit boundary conversion, not algebra."""
    if q.dim.system == system:
        return q
    exponents = [Fraction(0)] * system.size
    for name, e in zip(q.dim.system.names, q.dim.exponents):
        if e == 0:
            continue
        if name not in system.names:
            raise ParseError(
                f"{context}: dimension uses fundamental {name!r} which the spec's "
                f"system {system.names} lacks"
            )
        exponents[system.axis(name)] = e
    return Quantity(q.log_magnitude, DimVector(system, tuple(exponents)))


def _load_bindings(path, spec: dsl.ProblemSpec, registry) -> list[Quantity]:
    """Bindings file: JSON object, one entry per spec variable and no other;
    values are positive numbers (magnitudes in the coherent reference system)
    or quantity literals resolved against the registry. Returns the values
    in the spec's variable order."""
    raw = dsl.read_json(path, "bindings", ParseError)
    if not isinstance(raw, dict):
        raise ParseError(f"bindings {path} must be a JSON object")
    unknown = [key for key in raw if key not in spec.variable_names]
    if unknown:
        raise ParseError(
            f"bindings {path}: {unknown[0]!r} names no spec variable "
            f"(variables: {', '.join(spec.variable_names)})"
        )
    out: list[Quantity] = []
    for name, dim in spec.env.items():
        if name not in raw:
            raise ParseError(f"bindings {path}: missing variable {name!r}")
        value = raw[name]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not 0 < value < math.inf:
                raise ParseError(
                    f"bindings {path}: {name} must be finite and positive, got {value}"
                )
            out.append(Quantity(math.log(value), dim))
        elif isinstance(value, str):
            if registry is None:
                raise ParseError(
                    f"bindings {path}: {name!r} is a quantity literal but no registry was given"
                )
            try:
                q = dsl.parse_quantity(value, registry)
            except ParseError as exc:
                raise type(exc)(f"bindings {path}: {name}: {exc}") from exc
            q = _into_system(q, spec.system, f"bindings {path}: {name}")
            if q.dim != dim:
                raise ParseError(
                    f"bindings {path}: {name} has dimension {q.dim}, spec declares {dim}"
                )
            out.append(q)
        else:
            raise ParseError(f"bindings {path}: {name} must be a number or a quantity literal")
    return out


# --- subcommands ----------------------------------------------------------


def cmd_pi(args) -> int:
    spec = dsl.load_problem_spec(args.spec)
    names = spec.variable_names
    special = pigroups.special_basis(spec.variable_dims)
    basis = special.canonical
    n = len(names)
    r = basis.r
    m = n - r
    if args.json:
        _emit_json(
            {
                "n": n,
                "m": m,
                "r": r,
                "variables": list(names),
                "canonical": [[str(c) for c in g.exponents] for g in basis.groups],
                "special": {
                    "pivot_indices": list(special.pivot_indices),
                    "free_indices": list(special.free_indices),
                    "groups": [
                        [str(c) for c in g.exponents] for g in special.base.groups
                    ],
                },
            }
        )
        return 0
    if r == 0:
        print(f"n = {n}, m = {m}, r = 0: relation is determined up to a dimensionless constant set")
        return 0
    print(f"n = {n}, m = {m}, r = {r}")
    print("canonical pi basis:")
    for i, g in enumerate(basis.groups, start=1):
        print(f"  pi_{i} = {monomial_text(names, g.exponents, ' * ')}")
    pivots = ", ".join(names[i] for i in special.pivot_indices)
    free = ", ".join(names[i] for i in special.free_indices)
    print(f"special pi basis (pivots: {pivots}; free: {free}):")
    for i, g in enumerate(special.base.groups, start=1):
        print(f"  psi_{i} = {monomial_text(names, g.exponents, ' * ')}")
    return 0


def cmd_consistent(args) -> int:
    from . import units

    registry = _registry_from(args)
    if registry is None:
        raise ParseError(f"a registry is required (--registry or ${REGISTRY_ENV})")
    quantities = [registry.quantity(name) for name in args.units]
    report = units.is_consistent(quantities, tol=args.tol)
    if args.json:
        witness = report.witness
        _emit_json(
            {
                "consistent": report.consistent,
                "units": list(args.units),
                "witness": None
                if witness is None
                else {
                    "exponents": [str(c) for c in witness.combo.exponents],
                    "clash_factor": format_magnitude(witness.log_clash_factor),
                },
            }
        )
    elif report.consistent:
        print(f"consistent: {' '.join(args.units)}")
    else:
        combo = monomial_text(args.units, report.witness.combo.exponents, " * ")
        print(f"clash: {combo} = {format_magnitude(report.witness.log_clash_factor)}")
    return 0 if report.consistent else 1


def cmd_verify(args) -> int:
    from . import harness

    spec = dsl.load_problem_spec(args.spec)
    report = harness.fuzz_invariance(spec, trials=args.trials, seed=args.seed, tol=args.tol)
    payload = harness.report_to_dict(report)
    if args.json:
        _emit_json(payload)
    else:
        counts = "".join(
            f", {key}: {payload[key]}" for key in ("inapplicable", "undecided") if key in payload
        )
        print(f"trials: {payload['trials']}, passed: {payload['passed']}{counts}")
        ce = payload["counterexample"]
        if ce is None:
            print("no violation found (passes are evidence of invariance, not proof)")
        else:
            print(f"counterexample at trial {report.counterexample.trial_index}:")
            print("  bindings: " + ", ".join(f"{k} = {v}" for k, v in ce["bindings"].items()))
            print("  factors: " + ", ".join(f"{k} = {v}" for k, v in ce["factors"].items()))
            before = "TRUE" if ce["before"] else "FALSE"
            after = "TRUE" if ce["after"] else "FALSE"
            print(f"  before: {before}, after: {after}")
    return 0 if report.counterexample is None else 1


def cmd_equiv(args) -> int:
    from . import nondim

    spec = dsl.load_problem_spec(args.spec)
    registry = _registry_from(args)
    xs = _load_bindings(args.bindings_a, spec, registry)
    ys = _load_bindings(args.bindings_b, spec, registry)
    basis = pigroups.pi_basis(spec.variable_dims)
    verdict = nondim.equivalent(basis, xs, ys, tol=args.tol)
    # `_load_bindings` gave both the spec's dimensions: no DIM_MISMATCH verdict
    pa, pb = nondim.pi_values(basis, xs), nondim.pi_values(basis, ys)
    if args.json:
        _emit_json(
            {
                "equivalent": verdict.equivalent,
                "reason": verdict.reason.value,
                "mismatch_index": verdict.mismatch_index,
                "pi_values_a": [format_magnitude(v) for v in pa.log_values],
                "pi_values_b": [format_magnitude(v) for v in pb.log_values],
            }
        )
    elif verdict.equivalent:
        print("equivalent")
    else:
        i = verdict.mismatch_index
        print(
            f"not equivalent: pi group {i} differs "
            f"({format_magnitude(pa.log_values[i])} vs {format_magnitude(pb.log_values[i])})"
        )
    return 0 if verdict.equivalent else 1


def cmd_nondim(args) -> int:
    from . import nondim

    spec = dsl.load_problem_spec(args.spec)
    registry = _registry_from(args)
    xs = _load_bindings(args.bindings, spec, registry)
    special = pigroups.special_basis(spec.variable_dims)
    ref = [Quantity(0.0, dim) for dim in spec.variable_dims]
    values = nondim.pi_values(special.canonical, xs)
    rep = nondim.canonical_rep(special, ref, xs, tol=args.tol)
    if args.json:
        _emit_json(
            {
                "pi_values": [format_magnitude(v) for v in values.log_values],
                "canonical_representative": {
                    name: format_magnitude(q.log_magnitude)
                    for name, q in zip(spec.variable_names, rep)
                },
            }
        )
    else:
        if values.log_values:
            print("pi values: " + ", ".join(format_magnitude(v) for v in values.log_values))
        else:
            print("pi values: none (r = 0)")
        print("canonical representative (pivot slots at reference):")
        for name, q in zip(spec.variable_names, rep):
            print(f"  {name} = {format_magnitude(q.log_magnitude)}")
    return 0


def cmd_check(args) -> int:
    spec = dsl.load_problem_spec(args.spec)
    try:
        result = dsl.typecheck(spec.relation, spec.env)
    except DimensionError as exc:
        if args.json:
            _emit_json({"well_typed": False, "error": str(exc)})
        else:
            print(f"type error: {exc}")
        return 1
    kind = "boolean" if result is dsl.BOOL else f"quantity of dimension {result}"
    if args.json:
        _emit_json({"well_typed": True, "result_type": kind})
    else:
        print(f"well-typed: {kind}")
    return 0


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piforge",
        description="Exact dimensional analysis: pi-group bases, consistency "
        "checking, nondimensionalization, and invariance fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False, registry=False, tol=False):
        if spec:
            p.add_argument("--spec", required=True, help="problem-spec JSON file")
        if registry:
            p.add_argument(
                "--registry",
                default=None,
                help=f"unit registry JSON file (default: ${REGISTRY_ENV})",
            )
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="log distance from the rescaling orbit; relative gap for '=' in verify")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("pi", help="print pi-group bases for a problem spec")
    common(p, spec=True)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("consistent", help="check a unit list for clashes")
    p.add_argument("units", nargs="+", help="unit names from the registry")
    common(p, registry=True, tol=True)
    p.set_defaults(func=cmd_consistent)

    p = sub.add_parser("verify", help="fuzz a relation for dimensional invariance")
    common(p, spec=True, tol=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="number of trials")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="fuzzing seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("equiv", help="decide equivalence of two variable bindings")
    common(p, spec=True, registry=True, tol=True)
    p.add_argument("bindings_a", help="bindings JSON file")
    p.add_argument("bindings_b", help="bindings JSON file")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("nondim", help="pi-values and canonical representative of a binding")
    common(p, spec=True, registry=True, tol=True)
    p.add_argument("bindings", help="bindings JSON file")
    p.set_defaults(func=cmd_nondim)

    p = sub.add_parser("check", help="typecheck a problem spec's relation")
    common(p, spec=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = getattr(args, "tol", DEFAULT_TOL)
    if not (math.isfinite(tol) and tol > 0):
        print("error: --tol must be a finite number greater than 0", file=sys.stderr)
        return 2
    if getattr(args, "trials", DEFAULT_TRIALS) < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: 128 + SIGPIPE, and no exit flush into it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except PiforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # 1 is a verdict; a failure the library did not foresee is not one
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
