"""cli-session: fresh-interpreter `python -m piforge.cli` invocations.

A fixed script covers all six subcommands on fixtures/, the way a person or
a Makefile uses piforge. Start-up dominates each call, so this workload
shows import and dependency work and barely moves with faster algebra. The
seed picks the verify seeds, the unit list and the bindings files.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import statistics
from fractions import Fraction

import checks
from common import Op, run_child

NAME = "cli-session"
ROUND_SECONDS = 5.0
TRIALS = 1000
SI_UNITS = ("kg", "m", "s", "A", "N", "V", "ohm", "F")
COMMANDS = ("pi", "consistent", "verify", "equiv", "nondim", "check")

TRACED = ()
PER_CALL = ()
WATCH = {}
LAYER_METRICS = tuple((f"cli.{cmd}_ms", "ms") for cmd in COMMANDS)


def _load(ctx, name):
    return json.loads((ctx.root / "fixtures" / name).read_text())


def prepare(seed: int, ctx) -> dict:
    """What every invocation loads: piforge.cli, the registry and the specs."""
    importlib.import_module("piforge.cli")
    from piforge import dsl, units

    units.UnitRegistry.load(ctx.root / "fixtures" / "registry.json")
    for name in ("mass_spring", "electronics", "newton", "hidden_constant"):
        dsl.load_problem_spec(ctx.root / "fixtures" / f"{name}.json")
    bad = ctx.workdir / "unparseable.json"
    bad.write_text(json.dumps({"system": ["L"], "variables": {"x": "L"}, "relation": "x = = x"}))
    return {"seed": seed, "ctx": ctx, "bad": bad}


def check_setup(state) -> list[str]:
    return []


def _spec_matrix(raw):
    names = raw["system"]
    cols = [checks.parse_dim(t, names) for t in raw["variables"].values()]
    return [list(row) for row in zip(*cols)]


def round_ops(state, r: int) -> list[Op]:
    ctx = state["ctx"]
    rng = random.Random(f"{NAME}:{state['seed']}:{r}")
    registry = _load(ctx, "registry.json")
    mass_spring = _load(ctx, "mass_spring.json")
    fixture_bindings = _load(ctx, "mass_spring_bindings.json")

    # Bindings for equiv/nondim: a seeded point, its image under a seeded
    # rescaling of M and T, and a copy with k perturbed (k is in k*t^2/m).
    a = {v: round(rng.uniform(0.1, 100.0), 6) for v in ("m", "k", "t")}
    fm, ft = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
    b = {"m": a["m"] * fm, "k": a["k"] * fm / ft**2, "t": a["t"] * ft}
    c = dict(a, k=a["k"] * rng.choice((0.5, 2.0)))
    files = {}
    for label, content in (("a", a), ("b", b), ("c", c)):
        files[label] = ctx.workdir / f"bindings_{r}_{label}.json"
        files[label].write_text(json.dumps(content))
    units_list = rng.sample(SI_UNITS, rng.randint(3, len(SI_UNITS)))
    verify_seed = rng.randrange(2**31)

    def cli(tag, args, check):
        cmd = [ctx.python, "-m", "piforge.cli", *args]
        return Op(tag, lambda: run_child(cmd, ctx), lambda res: [
            f"{' '.join(args)}: {e}" for e in check(res)])

    spec = lambda name: ["--spec", f"fixtures/{name}.json"]
    reg = ["--registry", "fixtures/registry.json"]
    return [
        cli("pi", ["pi", *spec("mass_spring"), "--json"], _pi_check(_load(ctx, "mass_spring.json"))),
        cli("pi", ["pi", *spec("electronics"), "--json"], _pi_check(_load(ctx, "electronics.json"))),
        cli("usage", ["pi", "--spec", str(state["bad"].relative_to(ctx.root))], _exit(2)),
        cli("consistent", ["consistent", "cm", "hr", "knot", *reg, "--json"], _clash_check(registry)),
        cli("consistent", ["consistent", "V", "A", "ohm", "s", "F", *reg],
            _exit(0, "consistent: V A ohm s F\n")),
        cli("consistent", ["consistent", *units_list, *reg],
            _exit(0, f"consistent: {' '.join(units_list)}\n")),
        cli("verify", ["verify", *spec("newton"), "--trials", str(TRIALS), "--seed", str(verify_seed)],
            _exit(0, f"trials: {TRIALS}, passed: {TRIALS}\n")),
        cli("verify", ["verify", *spec("hidden_constant"), "--trials", str(TRIALS),
                       "--seed", str(verify_seed), "--json"], _hidden_constant_check(ctx)),
        cli("equiv", ["equiv", *spec("mass_spring"), str(files["a"]), str(files["b"])],
            _exit(0, "equivalent\n")),
        cli("equiv", ["equiv", *spec("mass_spring"), str(files["a"]), str(files["c"])],
            _exit(1, "not equivalent: pi group 0 differs")),
        cli("nondim", ["nondim", *spec("mass_spring"), "fixtures/mass_spring_bindings.json"],
            _nondim_text_check(fixture_bindings)),
        cli("nondim", ["nondim", *spec("mass_spring"), str(files["a"]), "--json"],
            _nondim_json_check(a, _spec_matrix(mass_spring))),
        cli("check", ["check", *spec("hidden_constant")], _exit(1, "type error: ")),
        cli("check", ["check", *spec("newton")], _exit(0, "well-typed: boolean\n")),
    ]


def _exit(code, prefix=None):
    def check(res):
        errors = []
        if res.code != code:
            errors.append(f"exit {res.code}, expected {code}; stderr: {res.err.strip()[-300:]}")
        if prefix is not None and not res.out.startswith(prefix):
            errors.append(f"output {res.out[:200]!r} does not start with {prefix!r}")
        return errors
    return check


def _json(res, code):
    errors = _exit(code)(res)
    if errors:
        return None, errors
    try:
        return json.loads(res.out), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _pi_check(raw):
    matrix = _spec_matrix(raw)

    def check(res):
        out, errors = _json(res, 0)
        if errors:
            return errors
        special = out["special"]
        return checks.check_bases(matrix, out["canonical"], special["groups"],
                                  special["pivot_indices"], special["free_indices"])
    return check


def _clash_check(registry):
    """cm^-1 * hr * knot is dimensionless and worth 185200 by the registry."""
    names = ("cm", "hr", "knot")
    system = registry["system"]
    mags = [float(registry["units"][u]["magnitude"]) for u in names]
    matrix = _spec_matrix({"system": system,
                           "variables": {u: registry["units"][u]["dim"] for u in names}})

    def check(res):
        out, errors = _json(res, 1)
        if errors:
            return errors
        witness = out["witness"] or {}
        exps = [float(Fraction(e)) for e in witness.get("exponents", ())]
        if len(exps) != 3 or not checks.annihilates(matrix, witness["exponents"]):
            return [f"witness {witness} is not a dimensionless combination"]
        value = math.prod(m ** e for m, e in zip(mags, exps))
        reported = float(witness["clash_factor"])
        if not checks.rel_eq(reported, value) or not (
                checks.rel_eq(value, 185200.0) or checks.rel_eq(value, 1 / 185200.0)):
            return [f"clash factor {reported}, registry gives {value}, expected 185200"]
        return []
    return check


def _hidden_constant_check(ctx):
    raw = _load(ctx, "hidden_constant.json")
    dims = {v: dict(zip(raw["system"], checks.parse_dim(t, raw["system"])))
            for v, t in raw["variables"].items()}
    truth = lambda v: checks.rel_eq(v["x"], 299792458 * v["t"])

    def check(res):
        out, errors = _json(res, 1)
        if errors:
            return errors
        ce = out["counterexample"]
        found = None if ce is None else (
            {k: float(v) for k, v in ce["bindings"].items()},
            {k: float(v) for k, v in ce["factors"].items()},
            ce["before"], ce["after"])
        return checks.check_fuzz(False, truth, dims, out["trials"], out["passed"], found)
    return check


def _nondim_text_check(bindings):
    want = bindings["k"] * bindings["t"] ** 2 / bindings["m"]

    def check(res):
        errors = _exit(0, "pi values: ")(res)
        if errors:
            return errors
        value = float(res.out.splitlines()[0].split(":")[1])
        if not checks.rel_eq(value, want):
            return [f"pi value {value}, k*t^2/m = {want}"]
        return []
    return check


def _nondim_json_check(bindings, matrix):
    """The pi value is k*t^2/m; the representative keeps it and sits at the
    reference (1) on the pivot slots."""
    want = bindings["k"] * bindings["t"] ** 2 / bindings["m"]
    names = ("m", "k", "t")

    def check(res):
        out, errors = _json(res, 0)
        if errors:
            return errors
        (value,) = [float(v) for v in out["pi_values"]]
        rep = {k: float(v) for k, v in out["canonical_representative"].items()}
        if not checks.rel_eq(value, want, 1e-12):
            errors.append(f"pi value {value}, k*t^2/m = {want}")
        if not checks.rel_eq(rep["k"] * rep["t"] ** 2 / rep["m"], want, 1e-12):
            errors.append("canonical representative has another pi value")
        for p in checks.first_independent(matrix):
            if rep[names[p]] != 1.0:
                errors.append(f"canonical representative has {names[p]} = {rep[names[p]]}")
        return errors
    return check


def layer_metrics(results, tracer) -> dict[str, float]:
    """Median wall time of each subcommand's invocations."""
    return {
        f"cli.{cmd}_ms": statistics.median(lat for tag, lat, _, _ in results if tag == cmd) * 1e3
        for cmd in COMMANDS
    }
