"""Command-line interface.

Subcommands: pi, consistent, verify, equiv, nondim, check. Exit codes follow
one contract everywhere: 0 success/pass, 1 domain negative (inconsistent
units, invariance violation, not equivalent, type error), 2 usage or parse
failure, 141 stdout closed by its reader (128 + SIGPIPE). Output is
deterministic for identical inputs and flags; --json emits exact rationals
as "p/q" strings and magnitudes as decimals with 15 significant digits.

Each `cmd_*` is a function of values: it reads no file and no environment
variable, writes nothing, and returns (exit code, --json payload, text
lines). `main` is the one input and output site. Before the command runs it
reads, in this order, the --spec file, the unit registry (--registry or
$PIFORGE_REGISTRY, only for the commands that take --registry) and each
bindings file, and puts on the parsed arguments, in place of each path, its
value: a `ProblemSpec`, a `UnitRegistry` or None, a list of `Quantity`. It
then prints the payload as indented JSON under --json and the lines
otherwise.

`main` is also the one place a failure becomes exit 2. Every usage error, a
bad --tol or --trials or a file that cannot be read, decoded or parsed, is
raised as a PiforgeError naming what is at fault, and one handler prints it
as "error: <message>". The catch-all after it is for defects only: it
prints the exception's class, so a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# pigroups, units, harness and nondim are imported where a call needs them,
# so a call loads only the modules it runs.
from . import dsl
from .core import DEFAULT_TOL, DimSystem, DimVector, Quantity, format_magnitude, monomial_text
from .errors import DimensionError, ParseError, PiforgeError

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 0
REGISTRY_ENV = "PIFORGE_REGISTRY"

# what a command returns: (exit code, --json payload, text lines)
_Output = tuple[int, dict, list[str]]


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
    values are positive numbers within the float range (magnitudes in the
    coherent reference system) or quantity literals resolved against the
    registry. Returns the values in the spec's variable order."""
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
            try:
                out.append(Quantity.from_magnitude(value, dim))
            except ValueError:
                raise ParseError(
                    f"bindings {path}: {name} must be finite and positive, got {value}"
                ) from None
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


def cmd_pi(args) -> _Output:
    from . import pigroups

    names = args.spec.variable_names
    special = pigroups.special_basis(args.spec.variable_dims)
    basis = special.canonical
    n = len(names)
    r = basis.r
    m = n - r
    payload = {
        "n": n,
        "m": m,
        "r": r,
        "variables": list(names),
        "canonical": [[str(c) for c in g.exponents] for g in basis.groups],
        "special": {
            "pivot_indices": list(special.pivot_indices),
            "free_indices": list(special.free_indices),
            "groups": [[str(c) for c in g.exponents] for g in special.base.groups],
        },
    }
    if r == 0:
        return 0, payload, [
            f"n = {n}, m = {m}, r = 0: relation is determined up to a dimensionless constant set"
        ]
    pivots = ", ".join(names[i] for i in special.pivot_indices)
    free = ", ".join(names[i] for i in special.free_indices)
    return 0, payload, [
        f"n = {n}, m = {m}, r = {r}",
        "canonical pi basis:",
        *(f"  pi_{i} = {monomial_text(names, g.exponents, ' * ')}"
          for i, g in enumerate(basis.groups, start=1)),
        f"special pi basis (pivots: {pivots}; free: {free}):",
        *(f"  psi_{i} = {monomial_text(names, g.exponents, ' * ')}"
          for i, g in enumerate(special.base.groups, start=1)),
    ]


def cmd_consistent(args) -> _Output:
    from . import units

    if args.registry is None:
        raise ParseError(f"a registry is required (--registry or ${REGISTRY_ENV})")
    quantities = [args.registry.quantity(name) for name in args.units]
    report = units.is_consistent(quantities, tol=args.tol)
    payload = {"consistent": report.consistent, "units": list(args.units), "witness": None}
    if report.consistent:
        return 0, payload, [f"consistent: {' '.join(args.units)}"]
    combo = report.witness.combo
    factor = format_magnitude(report.witness.log_clash_factor)
    payload["witness"] = {"exponents": [str(c) for c in combo.exponents], "clash_factor": factor}
    return 1, payload, [f"clash: {monomial_text(args.units, combo.exponents, ' * ')} = {factor}"]


def cmd_verify(args) -> _Output:
    from . import harness

    report = harness.fuzz_invariance(args.spec, trials=args.trials, seed=args.seed, tol=args.tol)
    payload = harness.report_to_dict(report)
    counts = "".join(
        f", {key}: {payload[key]}" for key in ("inapplicable", "undecided") if key in payload
    )
    head = f"trials: {payload['trials']}, passed: {payload['passed']}{counts}"
    ce = payload["counterexample"]
    if ce is None:
        return 0, payload, [head, "no violation found (passes are evidence of invariance, not proof)"]
    before = "TRUE" if ce["before"] else "FALSE"
    after = "TRUE" if ce["after"] else "FALSE"
    return 1, payload, [
        head,
        f"counterexample at trial {report.counterexample.trial_index}:",
        "  bindings: " + ", ".join(f"{k} = {v}" for k, v in ce["bindings"].items()),
        "  factors: " + ", ".join(f"{k} = {v}" for k, v in ce["factors"].items()),
        f"  before: {before}, after: {after}",
    ]


def cmd_equiv(args) -> _Output:
    from . import nondim, pigroups

    xs, ys = args.bindings_a, args.bindings_b
    basis = pigroups.pi_basis(args.spec.variable_dims)
    verdict = nondim.equivalent(basis, xs, ys, tol=args.tol)
    # `_load_bindings` gave both the spec's dimensions: no DIM_MISMATCH verdict
    pa, pb = nondim.pi_values(basis, xs), nondim.pi_values(basis, ys)
    a, b = ([format_magnitude(v) for v in p.log_values] for p in (pa, pb))
    payload = {
        "equivalent": verdict.equivalent,
        "reason": verdict.reason.value,
        "mismatch_index": verdict.mismatch_index,
        "pi_values_a": a,
        "pi_values_b": b,
    }
    if verdict.equivalent:
        return 0, payload, ["equivalent"]
    i = verdict.mismatch_index
    return 1, payload, [f"not equivalent: pi group {i} differs ({a[i]} vs {b[i]})"]


def cmd_nondim(args) -> _Output:
    from . import nondim, pigroups

    spec, xs = args.spec, args.bindings
    special = pigroups.special_basis(spec.variable_dims)
    ref = [Quantity(0.0, dim) for dim in spec.variable_dims]
    values = nondim.pi_values(special.canonical, xs)
    rep = nondim.canonical_rep(special, ref, xs, tol=args.tol)
    values = [format_magnitude(v) for v in values.log_values]
    rep = {name: format_magnitude(q.log_magnitude) for name, q in zip(spec.variable_names, rep)}
    return 0, {"pi_values": values, "canonical_representative": rep}, [
        "pi values: " + (", ".join(values) if values else "none (r = 0)"),
        "canonical representative (pivot slots at reference):",
        *(f"  {name} = {text}" for name, text in rep.items()),
    ]


def cmd_check(args) -> _Output:
    try:
        result = dsl.typecheck(args.spec.relation, args.spec.env)
    except DimensionError as exc:
        return 1, {"well_typed": False, "error": str(exc)}, [f"type error: {exc}"]
    kind = "boolean" if result is dsl.BOOL else f"quantity of dimension {result}"
    return 0, {"well_typed": True, "result_type": kind}, [f"well-typed: {kind}"]


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
    try:
        tol = getattr(args, "tol", DEFAULT_TOL)
        if not (math.isfinite(tol) and tol > 0):
            raise PiforgeError("--tol must be a finite number greater than 0")
        if getattr(args, "trials", DEFAULT_TRIALS) < 1:
            raise PiforgeError("--trials must be at least 1")
        if "spec" in args:
            args.spec = dsl.load_problem_spec(args.spec)
        if "registry" in args:
            from . import units

            path = args.registry or os.environ.get(REGISTRY_ENV)
            args.registry = None if path is None else units.UnitRegistry.load(path)
        for key in ("bindings_a", "bindings_b", "bindings"):
            if key in args:
                setattr(args, key, _load_bindings(getattr(args, key), args.spec, args.registry))
        code, payload, lines = args.func(args)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
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
