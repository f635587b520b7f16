"""CLI contract: byte-identical golden outputs and documented exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from piforge import cli, dsl, nondim, pigroups, units
from piforge.core import DEFAULT_TOL, Quantity, format_magnitude
from piforge.errors import UnknownUnitError

from support import FIXTURES, GOLDENS, GOLDEN_CASES, ROOT, run_cli


@pytest.mark.parametrize("golden,argv,expected_exit", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(golden, argv, expected_exit):
    proc = run_cli(*argv)
    assert proc.returncode == expected_exit, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / golden).read_bytes()


def test_outputs_are_reproducible():
    argv = ["verify", "--spec", "fixtures/hidden_constant.json", "--trials", "50", "--seed", "9"]
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


def test_regen_goldens_writes_no_case_with_the_wrong_exit(tmp_path, monkeypatch):
    import regen_goldens

    cases = [("right.txt", ["pi"], 0), ("wrong.txt", ["verify"], 0)]
    exits = {"pi": 0, "verify": 1}
    monkeypatch.setattr(regen_goldens, "GOLDEN_CASES", cases)
    monkeypatch.setattr(regen_goldens, "GOLDENS", tmp_path)
    monkeypatch.setattr(regen_goldens, "run_cli", lambda command: subprocess.CompletedProcess(
        [command], exits[command], stdout=command.encode(), stderr=b""))
    assert regen_goldens.main() == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["right.txt"]
    assert (tmp_path / "right.txt").read_bytes() == b"pi"


class TestExitCodes:
    def test_missing_spec_file_is_usage_failure(self):
        assert run_cli("pi", "--spec", "fixtures/nope.json").returncode == 2

    def test_malformed_spec_is_usage_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": ["M"]}')
        assert run_cli("pi", "--spec", str(bad)).returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_consistent_requires_registry(self):
        proc = run_cli("consistent", "V", "A")
        assert proc.returncode == 2
        assert b"registry" in proc.stderr

    def test_registry_env_var_is_honored(self):
        proc = run_cli(
            "consistent", "cm", "hr", "knot",
            env_extra={"PIFORGE_REGISTRY": "fixtures/registry.json"},
        )
        assert proc.returncode == 1
        assert proc.stdout == (GOLDENS / "consistent_clash.txt").read_bytes()

    def test_check_type_error_is_domain_negative(self):
        proc = run_cli("check", "--spec", "fixtures/hidden_constant.json")
        assert proc.returncode == 1
        assert b"type error" in proc.stdout

    def test_check_well_typed(self):
        proc = run_cli("check", "--spec", "fixtures/newton.json")
        assert proc.returncode == 0
        assert proc.stdout == b"well-typed: boolean\n"

    def test_verify_ill_typed_spec_is_spec_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"system": ["M", "T"], "variables": {"m": "M", "t": "T"}, "relation": "m + t = m"}'
        )
        assert run_cli("verify", "--spec", str(bad), "--trials", "1").returncode == 2

    def test_nonpositive_tolerance_rejected(self):
        proc = run_cli("nondim", "--spec", "fixtures/mass_spring.json",
                       "fixtures/mass_spring_bindings.json", "--tol", "-1")
        assert proc.returncode == 2
        assert b"--tol must be a finite number greater than 0" in proc.stderr

    @pytest.mark.parametrize("command", ["pi", "check"])
    def test_tolerance_only_where_one_applies(self, command):
        proc = run_cli(command, "--spec", "fixtures/mass_spring.json", "--tol", "1e-6")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"unrecognized arguments: --tol" in proc.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # hidden_constant is violated: a tolerance that let it pass would be unsound
        proc = run_cli("verify", "--spec", "fixtures/hidden_constant.json", "--tol", tol)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"--tol" in proc.stderr

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("command", ["pi", "verify"])
    def test_stdout_closed_by_its_reader_exits_141(self, command, unbuffered):
        """A reader that closes the pipe first (`| head -0`) is none of 0, 1
        or 2: 128 + SIGPIPE, with no error line, buffered output or not."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(command, "--spec", "fixtures/newton.json",
                           env_extra={"PYTHONUNBUFFERED": unbuffered}, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_must_be_at_least_one(self, trials):
        proc = run_cli("verify", "--spec", "fixtures/newton.json", "--trials", trials)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"--trials" in proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "magnitude", [{"magnitude": "abc"}, {}, {"magnitude": "nan"}, {"magnitude": "inf"}],
        ids=["not-a-number", "missing", "nan", "inf"],
    )
    def test_bad_registry_magnitude_is_usage_failure(self, tmp_path, magnitude):
        registry = tmp_path / "reg.json"
        registry.write_text(json.dumps(
            {"system": ["L"], "units": {"u": {**magnitude, "dim": "L"}}}
        ))
        proc = run_cli("consistent", "u", "--registry", str(registry))
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: registry ")
        assert b"Traceback" not in proc.stderr

    def test_system_string_is_spec_error(self, tmp_path):
        spec = tmp_path / "mlt.json"
        spec.write_text(json.dumps({"system": "MLT", "variables": {"x": "L"}, "relation": "x = x"}))
        proc = run_cli("check", "--spec", str(spec))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: spec {spec}: bad system".encode())

    @pytest.mark.parametrize("command", ["pi", "check", "verify"])
    def test_non_string_dimension_is_spec_error(self, tmp_path, command):
        spec = tmp_path / "int.json"
        spec.write_text(json.dumps({"system": ["L"], "variables": {"x": 1}, "relation": "x = x"}))
        proc = run_cli(command, "--spec", str(spec))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            f"error: spec {spec}: the dimension of variable 'x' must be a string, got int\n"
        ).encode()

    @pytest.mark.parametrize(
        "unit,message",
        [
            ({"magnitude": 10**400, "dim": "L"}, "unit 'm' needs a finite positive 'magnitude'"),
            ({"magnitude": 1, "dim": "L^"}, "unit 'm': expected an integer exponent, got ''"),
            ({"magnitude": 1, "dim": "L^１２"}, "unit 'm': unexpected character '１' at position 2"),
            # strings outside the decimal grammar of a relation's constants
            *(({"magnitude": text, "dim": "L"}, "unit 'm' needs a finite positive 'magnitude'")
              for text in ("1_000", " 12\n", ".5", "5.", "+5", "١٢")),
        ],
        ids=["int-beyond-floats", "dim-malformed", "dim-fullwidth-digits", "underscore", "whitespace",
             "no-integer-part", "no-fraction-digits", "plus-sign", "arabic-indic-digits"],
    )
    def test_bad_registry_unit_names_registry_and_unit(self, tmp_path, unit, message):
        registry = tmp_path / "reg.json"
        registry.write_text(json.dumps({"system": ["L"], "units": {"m": unit}}))
        proc = run_cli("consistent", "m", "--registry", str(registry))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == f"error: registry {registry}: {message}\n".encode()

    def test_registry_unit_without_dim_is_named(self, tmp_path):
        registry = tmp_path / "reg.json"
        registry.write_text(json.dumps({"system": ["L"], "units": {"m": {"magnitude": 1}}}))
        proc = run_cli("consistent", "m", "--registry", str(registry))
        assert proc.returncode == 2
        assert proc.stderr == f"error: registry {registry}: unit 'm' needs a 'dim' string\n".encode()

    def test_unforeseen_exception_is_usage_failure(self, tmp_path):
        # '+' of L^1000000 and L^-1000000 is ill-typed, so verify refuses the
        # spec (exit 2) before any trial; exit 1 would read as "violated".
        # test_exception_outside_piforge_is_usage_failure covers the guard
        # for exceptions outside PiforgeError
        spec = tmp_path / "pow.json"
        spec.write_text(json.dumps({
            "system": ["L"],
            "variables": {"x": "L"},
            "relation": "x^1000000 + x^(-1000000) = x^1000000",
        }))
        proc = run_cli("verify", "--spec", str(spec), "--trials", "1")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")
        assert b"Traceback" not in proc.stderr

    def test_exception_outside_piforge_is_usage_failure(self, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check", crash)
        assert cli.main(["check", "--spec", str(FIXTURES / "newton.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: RuntimeError: boom\n"


def _write_spec(tmp_path, variables, relation, system=("L",)):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"system": list(system), "variables": variables, "relation": relation}))
    return str(path)


class TestVerifyDomainAndRange:
    @pytest.mark.parametrize("relation", ["log(x/y - 1) < 1", "(x - y)*x < y*y"])
    def test_out_of_domain_trials_do_not_abort(self, tmp_path, relation):
        spec = _write_spec(tmp_path, {"x": "L", "y": "L"}, relation)
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        assert b", inapplicable: " in proc.stdout.splitlines()[0]
        payload = json.loads(run_cli("verify", "--spec", spec, "--json").stdout)
        assert payload["passed"] + payload["inapplicable"] == payload["trials"]

    def test_a_refuted_run_ignores_the_budget_past_its_counterexample(self):
        # the run stops at trial 0's counterexample: no further trial is
        # drawn, so a billion-trial budget costs what one trial does
        proc = run_cli("verify", "--spec", FIXTURES / "hidden_constant.json",
                       "--trials", "1000000000", timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith(b"trials: 1000000000, passed: 0\ncounterexample at trial 0:\n")

    def test_relation_undefined_on_every_trial_is_usage_failure(self, tmp_path):
        # no trial tested the relation, so exit 0 would read as invariance
        spec = _write_spec(tmp_path, {"x": "L", "y": "L"}, "log(x/x - 1) < 1")
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: relation is undefined on all 1000 trials")
        assert b"log of non-positive value" in proc.stderr

    def test_power_beyond_the_float_range_is_violated(self, tmp_path):
        spec = _write_spec(tmp_path, {"x": "L", "y": "L^299"}, "y = x^300")
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == b""
        assert b"counterexample at trial 0:" in proc.stdout

    @pytest.mark.parametrize("variables,relation,expected_exit", [
        ({"x": "L"}, "x^1000 + x^1000 < x^1001", 1),
        ({"x": "L", "y": "L"}, "exp(x^3/y^3) < 2", 0),
    ])
    def test_overflow_in_linear_space_is_inapplicable(self, tmp_path, variables, relation, expected_exit):
        spec = _write_spec(tmp_path, variables, relation)
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == expected_exit, proc.stderr
        assert proc.stderr == b""
        assert b", inapplicable: " in proc.stdout.splitlines()[0]

    def test_overflow_on_every_trial_is_usage_failure(self, tmp_path):
        spec = _write_spec(tmp_path, {"x": "L"}, "exp(1000*x/x) < 2")
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: relation is undefined on all 1000 trials, so nothing was tested "
            b"(last: a value overflows the float range, about 1.8e+308)\n"
        )

    @pytest.mark.parametrize("relation", [
        "sin(1e308*x/x + 1e308*x/x) < 2",
        "(1e308*x/x + 1e308*x/x) - (1e308*x/x + 1e308*x/x) < 1",
        "log(1e308*x/x + 1e308*x/x) < 1",
    ])
    def test_sum_beyond_the_float_range_is_out_of_domain(self, tmp_path, relation):
        # finite terms whose sum rounds to inf: neither a ValueError from sin
        # nor a nan comparison that passes every trial
        spec = _write_spec(tmp_path, {"x": "L"}, relation)
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: relation is undefined on all 1000 trials, so nothing was tested "
            b"(last: a value overflows the float range, about 1.8e+308)\n"
        )

    @pytest.mark.parametrize("variables,relation,passed", [
        ({"x": "L", "y": "L"}, f"x^{10**308}/x^{10**308} < y/y*2", 279),
        ({"x": "L", "y": "L"}, f"x^{10**308} = x^{10**308}", 279),
        ({"x": "L", "y": "L"}, f"sin(x^{10**308}/y^{10**308}) < 2", 25),
        ({"x": "L", "y": "1"}, f"y = x^{10**308}/x^{10**308}", 279),
    ], ids=["ratio-order", "equality", "sin", "seeded-equality"])
    def test_log_beyond_the_float_range_is_out_of_domain(self, tmp_path, variables, relation, passed):
        # inf - inf in log space is no counterexample, no math domain error,
        # and no non-finite magnitude from the equality seeder
        spec = _write_spec(tmp_path, variables, relation)
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        assert proc.stdout.splitlines()[0] == (
            f"trials: 1000, passed: {passed}, inapplicable: {1000 - passed}".encode()
        )

    def test_undecided_trials_are_reported(self, tmp_path):
        # x is seeded to y - z where that is positive: the gap is then 0,
        # within rounding of the edge of '=' at tol 1e-300
        spec = _write_spec(tmp_path, {"x": "T", "y": "L", "z": "L"}, "x = y - z", system=("L", "T"))
        proc = run_cli("verify", "--spec", spec, "--tol", "1e-300", "--trials", "100")
        assert proc.returncode == 0, proc.stderr
        first = proc.stdout.splitlines()[0].decode()
        passed, undecided = (int(part.split(": ")[1]) for part in first.split(", ")[1:])
        assert first == f"trials: 100, passed: {passed}, undecided: {undecided}"
        assert passed + undecided == 100 and undecided > 0
        payload = json.loads(run_cli("verify", "--spec", spec, "--tol", "1e-300", "--trials", "100",
                                     "--json").stdout)
        assert (payload["passed"], payload["undecided"]) == (passed, undecided)
        assert list(payload) == ["trials", "passed", "undecided", "seed", "counterexample"]

    def test_no_trial_decided_is_usage_failure(self):
        proc = run_cli("verify", "--spec", FIXTURES / "hidden_constant.json", "--tol", "1e-300")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(
            b"error: relation was decided on none of 1000 trials, so nothing was tested (1000 undecided"
        )

    def test_equal_huge_powers_pass(self, tmp_path):
        spec = _write_spec(tmp_path, {"x": "L"}, "x^1000000 = x^1000000")
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"trials: 1000, passed: 1000\n")

    @pytest.mark.parametrize("command", ["verify", "check"])
    def test_reserved_variable_name_is_spec_error(self, tmp_path, command):
        spec = _write_spec(tmp_path, {"pi": "L", "y": "L"}, "pi < y")
        proc = run_cli(command, "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"variable name 'pi' is reserved" in proc.stderr

    @pytest.mark.parametrize("command", ["verify", "check"])
    def test_constant_beyond_the_float_range_is_parse_error(self, tmp_path, command):
        spec = _write_spec(tmp_path, {"x": "L"}, "x < 1e400*x")
        proc = run_cli(command, "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"float range" in proc.stderr
        assert b"ValueError" not in proc.stderr

    @pytest.mark.parametrize("command", ["verify", "check"])
    def test_exponent_beyond_the_float_range_is_parse_error(self, tmp_path, command):
        spec = _write_spec(tmp_path, {"x": "L", "y": "L"}, f"x^{10**309} < y^{10**309}")
        proc = run_cli(command, "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"float range" in proc.stderr
        assert b"OverflowError" not in proc.stderr

    def test_dimension_exponent_beyond_the_float_range(self, tmp_path):
        # the fuzzer shifts log magnitudes by float(exponent), so verify
        # refuses the spec; the exact algebra of pi has no such limit
        spec = _write_spec(tmp_path, {"x": f"L^{10**310}", "y": "L"}, "x < y")
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"variable 'x'" in proc.stderr
        assert b"beyond the float range" in proc.stderr
        assert b"OverflowError" not in proc.stderr
        proc = run_cli("pi", "--spec", spec)
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_rescaling_beyond_the_float_range(self, tmp_path):
        # float(exponent) is finite, and most rescalings would carry x's log
        # magnitude past the float range; no trial is rescaled, so each is
        # decided from the log gap of x < y
        spec = _write_spec(tmp_path, {"x": f"L^{10**308}", "y": "L"}, "x < y")
        proc = run_cli("verify", "--spec", spec)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith(b"trials: 1000, passed: 5\ncounterexample at trial 5:\n")
        proc = run_cli("verify", "--spec", spec, "--trials", "1", "--seed", "1")
        assert proc.returncode == 1
        assert proc.stderr == b""
        assert proc.stdout.startswith(b"trials: 1, passed: 0\ncounterexample at trial 0:\n")


class TestKnownFalseCounterexamples:
    """Relations that hold at every point, each exactly `0 < c*y` or
    undefined, on which the fuzzer reports a counterexample all the same: a
    false definitive verdict, from rounding in a sum, a product or a log that the
    mixed comparison's rounding bound does not cover. Each is a strict
    xfail, so a change that mends it shows as an unexpected pass."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="rounding in a sum, a product or a log gives a false counterexample")
    @pytest.mark.parametrize("relation,trial", [
        ("z - ((x + z) - x) < 1e-13*y", 17),
        ("log(x/z) + log(z/x) < 1e-15*y", 44),
        ("exp(log(x/z))*z - x < 1e-13*y", 971),
        ("(x^2/z)*z/x - x < 1e-13*y", 69),
        ("((x + z) - x) - z < 1e-13*y", 112),
    ])
    def test_a_relation_true_everywhere_passes(self, tmp_path, relation, trial):
        spec = _write_spec(tmp_path, {"x": "L", "z": "L", "y": "T"}, relation, system=("L", "T"))
        proc = run_cli("verify", "--spec", spec, "--trials", "1000", "--seed", "0", "--json")
        payload = json.loads(proc.stdout)
        assert payload["counterexample"] is None, f"counterexample at trial {trial}"
        assert proc.returncode == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a product of an exact 0 is reported as a counterexample")
    def test_a_relation_undefined_everywhere_is_usage_failure(self, tmp_path):
        # (x + z) - x - z is exactly 0, so the product leaves the domain at
        # every point; floats give it a sign on some trials (trial 144 fails)
        spec = _write_spec(tmp_path, {"x": "L", "z": "L", "y": "T"}, "((x + z) - x - z)*1e13 < y",
                           system=("L", "T"))
        proc = run_cli("verify", "--spec", spec, "--trials", "1000", "--seed", "0")
        assert proc.returncode == 2, proc.stdout


class TestNestingLimit:
    """A relation nested past `dsl.MAX_NESTING` is a usage error naming the
    limit in every command that reads it, before any typing: never a type
    error (exit 1), nor a RecursionError."""

    DEEP = {
        "500 terms": ({"x": "L", "t": "T"}, " + ".join(["x"] * 500) + " < t", ("check", "verify")),
        "3000 terms": ({"x": "L", "y": "T"}, " + ".join(["x"] * 3000) + " < y", ("pi", "check", "verify")),
        "400 parentheses": ({"x": "L", "y": "L"}, "(" * 400 + "x" + ")" * 400 + " < y", ("check",)),
    }

    @pytest.mark.parametrize("label", sorted(DEEP))
    def test_every_command_exits_2_naming_the_limit(self, tmp_path, label):
        variables, relation, commands = self.DEEP[label]
        spec = _write_spec(tmp_path, variables, relation, system=("L", "T"))
        for command in commands:
            extra = ("--trials", "50") if command == "verify" else ()
            proc = run_cli(command, "--spec", spec, *extra)
            assert proc.returncode == 2, (command, proc.stderr)
            assert proc.stdout == b""
            assert proc.stderr == f"error: spec {spec}: relation nests more than 200 levels deep\n".encode()


    DEEP_L, DEEP_M = "(" * 1000 + "L" + ")" * 1000, "(" * 1000 + "m" + ")" * 1000

    def test_a_deep_spec_dimension_exits_2_naming_the_limit(self, tmp_path):
        spec = _write_spec(tmp_path, {"x": self.DEEP_L, "t": "T"}, "x < t", system=("L", "T"))
        for command in ("check", "pi"):
            proc = run_cli(command, "--spec", spec)
            assert (proc.returncode, proc.stdout) == (2, b""), (command, proc.stderr)
            assert proc.stderr == f"error: spec {spec}: dimension nests more than 200 levels deep\n".encode()

    def test_a_deep_registry_unit_exits_2_naming_the_limit(self, tmp_path):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(
            {"system": ["L"], "units": {"m": {"magnitude": 1, "dim": self.DEEP_L}}}
        ))
        proc = run_cli("consistent", "m", "--registry", str(registry))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            f"error: registry {registry}: unit 'm': dimension nests more than 200 levels deep\n"
        ).encode()

    def test_a_deep_bindings_literal_exits_2_naming_the_limit(self, tmp_path):
        bindings = tmp_path / "bindings.json"
        bindings.write_text(json.dumps({"x": f"1 {self.DEEP_M}", "t": "1 s", "c": 299792458}))
        proc = run_cli(
            "nondim", "--spec", "fixtures/light_three_var.json", str(bindings),
            "--registry", "fixtures/registry.json",
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == f"error: bindings {bindings}: x: unit nests more than 200 levels deep\n".encode()


class TestBoundaryErrors:
    """Each malformed spec, registry or bindings file is a usage error (exit
    2) whose message names the file and, within it, the entry at fault."""

    REGISTRY = FIXTURES / "registry.json"

    @pytest.fixture
    def main(self, capsys, monkeypatch):
        """cli.main in this process, registry env cleared: argv -> (exit, stdout, stderr)."""
        monkeypatch.delenv(cli.REGISTRY_ENV, raising=False)

        def run(*argv):
            code = cli.main([str(a) for a in argv])
            return (code, *capsys.readouterr())

        return run

    @pytest.fixture
    def spec(self, tmp_path):
        return _write_spec(tmp_path, {"x": "L", "t": "T"}, "x < x", system=("L", "T"))

    @pytest.fixture
    def nondim(self, main, tmp_path, spec):
        """nondim over spec, given bindings -> (bindings path, result)."""
        def run(bindings, *registry):
            path = tmp_path / "bindings.json"
            path.write_text(json.dumps(bindings))
            return path, main("nondim", "--spec", spec, path, *registry)

        return run

    @pytest.mark.parametrize("literal,message", [
        ("2 parsec", "unknown unit 'parsec' (registry has: kg, m, s, A, N, V, ohm, F, cm, hr, knot, ft, min)"),
        ("0 m", "quantity magnitudes must be positive, got 0"),
        ("2 m m", "trailing input 'm' in quantity '2 m m'"),
    ], ids=["unknown-unit", "zero", "trailing"])
    def test_a_bad_literal_names_the_bindings_and_the_variable(self, nondim, literal, message):
        path, result = nondim({"x": literal, "t": 1}, "--registry", self.REGISTRY)
        assert result == (2, "", f"error: bindings {path}: x: {message}\n")

    def test_a_literal_keeps_its_error_class(self, tmp_path, spec):
        path = tmp_path / "bindings.json"
        path.write_text(json.dumps({"x": "2 parsec", "t": 1}))
        registry = units.UnitRegistry.load(self.REGISTRY)
        with pytest.raises(UnknownUnitError, match=f"^bindings {path}: x: unknown unit 'parsec'"):
            cli._load_bindings(path, dsl.load_problem_spec(spec), registry)

    @pytest.mark.parametrize("bindings,registry,message", [
        ([1, 2], True, " must be a JSON object"),
        ({"x": "1 m", "t": 1}, False, ": 'x' is a quantity literal but no registry was given"),
        ({"x": "1 s", "t": 1}, True, ": x has dimension T, spec declares L"),
        ({"x": "1 A", "t": 1}, True,
         ": x: dimension uses fundamental 'I' which the spec's system ('L', 'T') lacks"),
    ], ids=["not-an-object", "no-registry", "wrong-dimension", "fundamental-not-in-spec"])
    def test_bad_bindings(self, nondim, bindings, registry, message):
        path, result = nondim(bindings, *(["--registry", self.REGISTRY] if registry else []))
        assert result == (2, "", f"error: bindings {path}{message}\n")

    @pytest.mark.parametrize("raw,message", [
        ([], "expected a JSON object"),
        ({"system": ["L"], "variables": {}, "relation": "x = x"}, "'variables' must be a nonempty object"),
        ({"system": ["L"], "variables": {"x": "L L"}, "relation": "x = x"},
         "trailing input 'L' in dimension 'L L'"),
        ({"system": ["L"], "variables": {"x": "L^" + "1" * 5000}, "relation": "x = x"},
         "an exponent has at most 4300 digits, got 5000"),
    ], ids=["not-an-object", "no-variables", "trailing-dimension", "5000-digit-exponent"])
    def test_bad_spec(self, main, tmp_path, raw, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        assert main("check", "--spec", path) == (2, "", f"error: spec {path}: {message}\n")

    @pytest.mark.parametrize("text", ["[" + "1" * 5001 + "]", "[" * 100000 + "]" * 100000],
                             ids=["5001-digit-integer", "nested-100000-deep"])
    @pytest.mark.parametrize("what", ["spec", "registry", "bindings"])
    def test_json_past_a_parser_limit(self, main, tmp_path, what, text):
        """An integer of more digits than Python converts (4300 by default)
        or nesting past the recursion limit, limits RFC 8259 lets a parser
        set, make the file invalid JSON, never a Python class name."""
        path = tmp_path / f"{what}.json"
        path.write_text(text)
        code, out, err = main(*{
            "spec": ("check", "--spec", path),
            "registry": ("consistent", "--registry", path, "m"),
            "bindings": ("nondim", "--spec", FIXTURES / "mass_spring.json", path),
        }[what])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {what} {path} is not valid JSON: ")
        assert "ValueError:" not in err and "RecursionError:" not in err
        # the file, the limit and the digit count, but not Python's advice
        assert "set_int_max_str_digits" not in err

    def test_equiv_names_the_first_bad_file(self, main, tmp_path):
        """`main` reads the spec, the registry, bindings_a and bindings_b, in
        that order, before the command runs: with each made bad in turn, and
        every file after it bad too, the error names that one."""
        good = [FIXTURES / "mass_spring.json", self.REGISTRY, *[FIXTURES / "mass_spring_bindings.json"] * 2]
        bad = [tmp_path / f"bad_{what}.json" for what in ("spec", "a", "b")]
        for path in bad:
            path.write_text("[1, 2]")
        bad.insert(1, tmp_path / "missing.json")
        expected = [
            f"error: spec {bad[0]}: expected a JSON object\n",
            f"error: cannot read registry {bad[1]}: ",
            f"error: bindings {bad[2]} must be a JSON object\n",
            f"error: bindings {bad[3]} must be a JSON object\n",
        ]
        for i, message in enumerate(expected):
            spec, registry, a, b = good[:i] + bad[i:]
            code, out, err = main("equiv", "--spec", spec, "--registry", registry, a, b)
            assert (code, out) == (2, "")
            assert err.startswith(message) and err.count("\n") == 1

    def test_registry_without_units(self, main, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"system": ["L"]}))
        assert main("consistent", "m", "--registry", path) == (
            2, "", f"error: registry {path}: missing key 'units'\n"
        )

    def test_nondim_with_no_pi_group(self, nondim):
        _, (code, out, err) = nondim({"x": 2, "t": 3})
        assert (code, err) == (0, "")
        assert out.startswith("pi values: none (r = 0)\n")

    def test_trailing_whitespace_in_a_relation_parses(self, main, tmp_path):
        assert main("check", "--spec", _write_spec(tmp_path, {"x": "L"}, "x = x  ")) == (
            0, "well-typed: boolean\n", ""
        )


class TestOneInputSite:
    """`main` reads every file the command line names (the order is pinned
    by `TestBoundaryErrors.test_equiv_names_the_first_bad_file`), and each
    `cmd_*` is a function of the values it puts on the arguments."""

    SPEC = dsl.problem_spec_from_dict({  # fixtures/mass_spring.json, no file read
        "system": ["M", "T"],
        "variables": {"m": "M", "k": "M*T^-2", "t": "T"},
        "relation": "is_pos_int(t/(2*pi) * (k/m)^(1/2))",
    })

    @pytest.fixture
    def no_file(self, monkeypatch, tmp_path):
        """Any file read fails, and $PIFORGE_REGISTRY names a missing file."""
        def read_json(path, what, error):
            raise AssertionError(f"{what} {path} read")

        monkeypatch.setattr(dsl, "read_json", read_json)
        monkeypatch.setenv(cli.REGISTRY_ENV, str(tmp_path / "missing.json"))

    def _args(self, **values):
        return argparse.Namespace(spec=self.SPEC, tol=DEFAULT_TOL, **values)

    def _bindings(self, *magnitudes):
        return [Quantity.from_magnitude(v, d) for v, d in zip(magnitudes, self.SPEC.variable_dims)]

    def _cli(self, tmp_path, command, *bindings):
        """The CLI's (exit, text, --json payload) on the fixture spec and
        bindings files holding these magnitudes."""
        paths = []
        for i, magnitudes in enumerate(bindings):
            paths.append(tmp_path / f"bindings_{i}.json")
            paths[-1].write_text(json.dumps(dict(zip(self.SPEC.variable_names, magnitudes))))
        argv = [command, "--spec", "fixtures/mass_spring.json", *map(str, paths)]
        text, as_json = run_cli(*argv), run_cli(*argv, "--json")
        assert text.returncode == as_json.returncode
        return text.returncode, text.stdout.decode(), json.loads(as_json.stdout)

    def test_nondim_on_values_prints_its_golden(self, no_file, tmp_path):
        code, payload, lines = cli.cmd_nondim(self._args(bindings=self._bindings(2, 8, 3)))
        text = "".join(f"{line}\n" for line in lines)
        assert (code, text) == (0, (GOLDENS / "nondim_mass_spring.txt").read_text())
        assert self._cli(tmp_path, "nondim", (2, 8, 3)) == (code, text, payload)

    @pytest.mark.parametrize("other", [(4, 16, 3), (2.5, 7.3, 3.1)], ids=["equivalent", "not"])
    def test_equiv_on_values_prints_what_the_cli_prints(self, no_file, tmp_path, other):
        args = self._args(bindings_a=self._bindings(2, 8, 3), bindings_b=self._bindings(*other))
        code, payload, lines = cli.cmd_equiv(args)
        assert code == (0 if other == (4, 16, 3) else 1)
        text = "".join(f"{line}\n" for line in lines)
        assert self._cli(tmp_path, "equiv", (2, 8, 3), other) == (code, text, payload)

    @pytest.mark.parametrize("argv", [
        ["pi", "--spec", "fixtures/mass_spring.json"],
        ["check", "--spec", "fixtures/mass_spring.json"],
        ["verify", "--spec", "fixtures/newton.json", "--trials", "5"],
    ], ids=["pi", "check", "verify"])
    def test_a_broken_registry_variable_leaves_commands_without_a_registry(self, argv):
        """Only the commands that take --registry read $PIFORGE_REGISTRY."""
        broken = ROOT / "fixtures" / "missing.json"
        loaded = _loaded_after(
            f"import os; os.environ[{cli.REGISTRY_ENV!r}] = {str(broken)!r}; "
            f"from piforge import cli; assert cli.main({argv!r}) == 0"
        )
        assert "piforge.units" not in loaded

    def test_a_broken_registry_variable_fails_nondim(self, capsys, monkeypatch, tmp_path):
        broken = tmp_path / "missing.json"
        monkeypatch.setenv(cli.REGISTRY_ENV, str(broken))
        assert cli.main(["nondim", "--spec", str(FIXTURES / "mass_spring.json"),
                         str(FIXTURES / "mass_spring_bindings.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read registry {broken}: ")


class TestRepeatedKeys:
    """A key repeated within one JSON object of a spec, registry or bindings
    file is a usage error naming the file and the key: no copy wins."""

    @pytest.fixture
    def main(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.REGISTRY_ENV, raising=False)

        def run(*argv):
            code = cli.main([str(a) for a in argv])
            return (code, *capsys.readouterr())

        return run

    def test_spec(self, main, tmp_path):
        # the last copy would make x < y well-typed
        path = tmp_path / "spec.json"
        path.write_text('{"system": ["L", "T"], "variables": {"x": "L", "y": "T", "x": "T"}, '
                        '"relation": "x < y"}')
        assert main("check", "--spec", path) == (2, "", f"error: spec {path}: repeated key 'x'\n")

    @pytest.mark.parametrize("text,key", [
        ('{"system": ["L"], "system": ["L", "T"], "units": {"m": {"magnitude": "1", "dim": "L"}}}',
         "system"),
        ('{"system": ["L"], "units": {"m": {"magnitude": "1", "dim": "L"}, '
         '"m": {"magnitude": "2", "dim": "L"}}}', "m"),
    ], ids=["system", "unit"])
    def test_registry(self, main, tmp_path, text, key):
        path = tmp_path / "reg.json"
        path.write_text(text)
        assert main("consistent", "m", "--registry", path) == (
            2, "", f"error: registry {path}: repeated key {key!r}\n"
        )

    def test_bindings(self, main, tmp_path):
        path = tmp_path / "bindings.json"
        path.write_text('{"m": 1.0, "k": 2.0, "t": 3.0, "t": 4.0}')
        assert main("nondim", "--spec", FIXTURES / "mass_spring.json", path) == (
            2, "", f"error: bindings {path}: repeated key 't'\n"
        )

    def test_no_fixture_or_golden_repeats_a_key(self):
        def unique(pairs):
            assert len(dict(pairs)) == len(pairs), pairs
            return dict(pairs)

        paths = [*FIXTURES.glob("*.json"), *GOLDENS.glob("*.json")]
        assert paths
        for path in paths:
            json.loads(path.read_text(), object_pairs_hook=unique)


class TestTextAndJsonPrintTheSameNumbers:
    """consistent, equiv and nondim print each number as text exactly as
    their --json output writes it."""

    REGISTRY = FIXTURES / "registry.json"
    SPEC = FIXTURES / "mass_spring.json"

    @pytest.fixture
    def both(self, capsys, monkeypatch):
        """argv -> (text stdout, parsed --json stdout), with the same exit."""
        monkeypatch.delenv(cli.REGISTRY_ENV, raising=False)

        def run(*argv):
            argv = [str(a) for a in argv]
            code = cli.main(argv)
            text = capsys.readouterr().out
            assert cli.main([*argv, "--json"]) == code
            return text, json.loads(capsys.readouterr().out)

        return run

    @pytest.fixture
    def other(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"m": 2.5, "k": 7.3, "t": 3.1}')
        return path

    def test_consistent(self, both):
        text, payload = both("consistent", "cm", "hr", "knot", "--registry", self.REGISTRY)
        assert text == f"clash: cm^-1 * hr * knot = {payload['witness']['clash_factor']}\n"

    def test_equiv(self, both, other):
        text, payload = both("equiv", "--spec", self.SPEC, FIXTURES / "mass_spring_bindings.json", other)
        i = payload["mismatch_index"]
        a, b = payload["pi_values_a"][i], payload["pi_values_b"][i]
        assert text == f"not equivalent: pi group {i} differs ({a} vs {b})\n"

    @pytest.mark.parametrize("bindings", ["fixture", "other"])
    def test_nondim(self, both, other, bindings):
        path = FIXTURES / "mass_spring_bindings.json" if bindings == "fixture" else other
        text, payload = both("nondim", "--spec", self.SPEC, path)
        rep = payload["canonical_representative"]
        assert text.splitlines() == [
            f"pi values: {', '.join(payload['pi_values'])}",
            "canonical representative (pivot slots at reference):",
            *(f"  {name} = {value}" for name, value in rep.items()),
        ]


class TestJsonIsReadAsUtf8:
    """Spec, registry and bindings files are read as UTF-8 (RFC 8259),
    whatever the locale; bytes that are not UTF-8 make the file invalid
    JSON, named as such."""

    C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def test_a_non_ascii_ignored_key_reads_in_the_c_locale(self, tmp_path):
        path = tmp_path / "spec.json"
        raw = {"system": ["M", "L", "T"], "variables": {"F": "M*L*T^-2", "m": "M", "a": "L*T^-2"},
               "relation": "F = m*a", "note": "Ohm’s law, Ω"}
        path.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
        proc = run_cli("check", "--spec", str(path), env_extra=self.C_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == run_cli("check", "--spec", "fixtures/newton.json").stdout

    def test_a_byte_that_is_not_utf8_is_named_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"system": ["L"], "variables": {"x": "L"}, "relation": "x = x", "note": "\xff"}')
        for env in (None, self.C_LOCALE):
            proc = run_cli("check", "--spec", str(path), env_extra=env)
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr.startswith(f"error: spec {path} is not valid JSON: ".encode())
            assert b"can't decode byte 0xff" in proc.stderr


class TestDimensionExponentBeyondFloatRange:
    """The float path of consistent, nondim and equiv needs a float for every
    exponent; one beyond the float range is a usage error that says so."""

    @pytest.fixture
    def files(self, tmp_path):
        big = f"L^{10**400}"
        paths = {}
        for name, content in {
            "registry": {"system": ["L", "T"], "units": {
                "m": {"magnitude": "1", "dim": "L"},
                "s": {"magnitude": "1", "dim": "T"},
                "big": {"magnitude": "1", "dim": big},
            }},
            "spec": {"system": ["L", "T"], "variables": {"y": "L", "x": big, "t": "T"},
                     "relation": "x < x"},
            "a": {"y": "3 m", "x": "2 big", "t": "1 s"},
            "b": {"y": "4 m", "x": "2 big", "t": "1 s"},
        }.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(content))
        return {k: str(v) for k, v in paths.items()}

    @pytest.mark.parametrize("command", ["consistent", "nondim", "equiv"])
    def test_exit_2_naming_the_float_range(self, files, command):
        argv = {
            "consistent": ["m", "big"],
            "nondim": ["--spec", files["spec"], files["a"]],
            "equiv": ["--spec", files["spec"], files["a"], files["b"]],
        }[command]
        proc = run_cli(command, *argv, "--registry", files["registry"])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"float range" in proc.stderr
        assert b"OverflowError" not in proc.stderr


class TestNanPiValue:
    """Over L^(10^306+1) and L^(10^306), each exponent a float, bindings of
    1e300 give a pi group whose two log terms overflow to opposite
    infinities: its log value is NaN, and printing it is a usage error that
    names the float range."""

    @pytest.mark.parametrize("argv", [["nondim"], ["equiv"], ["equiv", "--json"]])
    def test_exit_2_naming_the_float_range(self, tmp_path, argv):
        spec = _write_spec(tmp_path, {"a": f"L^{10**306 + 1}", "b": f"L^{10**306}"}, "a = b")
        bindings = tmp_path / "bindings.json"
        bindings.write_text(json.dumps({"a": 1e300, "b": 1e300}))
        files = [str(bindings)] * (2 if argv[0] == "equiv" else 1)
        proc = run_cli(*argv, "--spec", spec, *files)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            b"error: a term of a magnitude lies beyond the float range, about 1.8e+308, "
            b"which the float path needs\n"
        )


class TestClashBeyondFloatRange:
    @pytest.fixture
    def wide_registry(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "system": ["L"],
            "units": {
                "a": {"magnitude": "1e-200", "dim": "L"},
                "b": {"magnitude": "1e200", "dim": "L"},
            },
        }))
        return str(path)

    @pytest.mark.parametrize(
        "names,factor",
        [(("a", "b"), "1e+400"), (("b", "a"), "1e-400")],
    )
    def test_factor_printed_from_its_log(self, wide_registry, names, factor):
        proc = run_cli("consistent", *names, "--registry", wide_registry)
        assert proc.returncode == 1
        assert proc.stderr == b""
        assert proc.stdout == f"clash: {names[0]}^-1 * {names[1]} = {factor}\n".encode()
        proc = run_cli("consistent", *names, "--registry", wide_registry, "--json")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["witness"]["clash_factor"] == factor


class TestEquivCommand:
    def test_identical_bindings(self):
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            "fixtures/mass_spring_bindings.json", "fixtures/mass_spring_bindings.json",
        )
        assert proc.returncode == 0
        assert proc.stdout == b"equivalent\n"

    def test_rescaled_bindings_equivalent(self, tmp_path):
        # (2, 8, 3) under M *= 5, T *= 2 becomes (10, 10, 6)
        rescaled = tmp_path / "b.json"
        rescaled.write_text('{"m": 10, "k": 10, "t": 6}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            "fixtures/mass_spring_bindings.json", str(rescaled),
        )
        assert proc.returncode == 0, proc.stdout

    def test_mismatch_reports_group_and_values(self, tmp_path):
        other = tmp_path / "b.json"
        other.write_text('{"m": 2, "k": 8, "t": 5}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            "fixtures/mass_spring_bindings.json", str(other), "--json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["equivalent"] is False
        assert payload["reason"] == "pi-mismatch"
        assert payload["mismatch_index"] == 0
        assert payload["pi_values_a"] == ["36"]
        assert payload["pi_values_b"] == ["100"]

    def test_quantity_literal_bindings_use_registry(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"x": "1 m", "t": "1 s", "c": 299792458}')
        b = tmp_path / "b.json"
        b.write_text('{"x": "100 cm", "t": "1 s", "c": 299792458}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/light_three_var.json", str(a), str(b),
            "--registry", "fixtures/registry.json",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "0",
        # beyond the float range however it is written, as in a registry
        pytest.param("1" + "0" * 400, id="400-digit-integer"),
    ])
    def test_non_finite_or_non_positive_binding_is_usage_failure(self, tmp_path, value):
        a = tmp_path / "a.json"
        a.write_text(f'{{"m": {value}, "k": 8, "t": 3}}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            str(a), "fixtures/mass_spring_bindings.json",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: bindings ")

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_binding_is_usage_failure(self, tmp_path, value):
        a = tmp_path / "a.json"
        a.write_text(f'{{"m": {value}, "k": 8, "t": 3}}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            str(a), "fixtures/mass_spring_bindings.json",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: bindings ")
        assert b"must be a number or a quantity literal" in proc.stderr

    @pytest.mark.parametrize("command", ["equiv", "nondim"])
    def test_a_key_naming_no_variable_is_usage_failure(self, tmp_path, command):
        a = tmp_path / "a.json"
        a.write_text('{"m": 1, "k": 2, "t": 3, "zz": 4, "yy": 5}')
        extra = ["fixtures/mass_spring_bindings.json"] if command == "equiv" else []
        proc = run_cli(command, "--spec", "fixtures/mass_spring.json", *extra, str(a))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            f"error: bindings {a}: 'zz' names no spec variable (variables: m, k, t)\n".encode()
        )

    def test_missing_binding_is_usage_failure(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"m": 2, "k": 8}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            str(a), "fixtures/mass_spring_bindings.json",
        )
        assert proc.returncode == 2


class TestPiValuesBeyondFloatRange:
    # k t^2 / m = 9e600 lies beyond the float range; its log does not
    @pytest.fixture
    def wide_bindings(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text('{"m": 1e-300, "k": 1e300, "t": 3}')
        return str(path)

    @staticmethod
    def _pi_text():
        spec = dsl.load_problem_spec(FIXTURES / "mass_spring.json")
        xs = [Quantity.from_magnitude(v, d) for v, d in zip((1e-300, 1e300, 3), spec.variable_dims)]
        (log_pi,) = nondim.pi_values(pigroups.pi_basis(spec.variable_dims), xs).log_values
        return format_magnitude(log_pi)

    def test_nondim_prints_the_value_from_its_log(self, wide_bindings):
        proc = run_cli("nondim", "--spec", "fixtures/mass_spring.json", wide_bindings)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout.splitlines()[0] == f"pi values: {self._pi_text()}".encode()
        assert self._pi_text().endswith("e+600")

    def test_equiv_reports_the_differing_group(self, wide_bindings):
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            wide_bindings, "fixtures/mass_spring_bindings.json",
        )
        assert proc.returncode == 1
        assert proc.stderr == b""
        assert proc.stdout == (
            f"not equivalent: pi group 0 differs ({self._pi_text()} vs 36)\n".encode()
        )


def test_verify_draws_no_trial_where_the_domain_is_proven():
    # a billion trials would take hours one by one
    proc = run_cli("verify", "--spec", "fixtures/newton.json", "--trials", "1000000000", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        b"trials: 1000000000, passed: 1000000000\n"
        b"no violation found (passes are evidence of invariance, not proof)\n"
    )


def test_verify_json_schema_keys():
    proc = run_cli(
        "verify", "--spec", "fixtures/newton.json", "--trials", "5", "--seed", "0", "--json"
    )
    payload = json.loads(proc.stdout)
    assert set(payload) == {"trials", "passed", "seed", "counterexample"}
    assert payload["counterexample"] is None


def test_installed_console_script_matches_module():
    # pyproject declares `piforge = piforge.cli:main`
    from piforge import cli

    assert callable(cli.main)
    assert cli.main(["pi", "--spec", str(FIXTURES / "mass_spring.json")]) == 0


def test_import_does_not_load_numpy():
    # piforge has no runtime dependency; keep numpy from creeping back in.
    # `import piforge` loads no module, so the star import reaches them all.
    code = "import sys, piforge.cli; from piforge import *; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, check=True
    )
    assert proc.stdout == b"False\n"


def _loaded_after(code):
    """The piforge modules, hashlib, dataclasses and inspect that a fresh
    interpreter holds after code."""
    code += (
        "\nimport sys; print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith('piforge.') or m in ('hashlib', 'dataclasses', 'inspect'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return set(proc.stdout.splitlines()[-1].split())


class TestStartupLoadsOnlyWhatRuns:
    """A CLI call imports the modules its command uses and no other."""

    def test_bare_import_loads_no_module(self):
        assert _loaded_after("import piforge") == set()

    @pytest.mark.parametrize("command", ["pi", "check"])
    def test_pi_and_check(self, command):
        """Only `pi` of the two builds a basis, so only it loads pigroups."""
        loaded = _loaded_after(
            "from piforge import cli; "
            f"cli.main([{command!r}, '--spec', 'fixtures/mass_spring.json'])"
        )
        assert ("piforge.pigroups" in loaded) == (command == "pi")
        assert not loaded & {"piforge.harness", "piforge.nondim", "piforge.units", "hashlib"}
        assert not loaded & {"dataclasses", "inspect"}

    def test_verify(self):
        loaded = _loaded_after(
            "from piforge import cli; "
            "cli.main(['verify', '--spec', 'fixtures/mass_spring.json', '--trials', '5'])"
        )
        assert {"piforge.harness", "piforge.enclose"} <= loaded
        assert not loaded & {"piforge.nondim", "piforge.pigroups"}
        assert not loaded & {"dataclasses", "inspect", "hashlib"}

    @pytest.mark.parametrize("argv", [
        ["pi", "--spec", "fixtures/mass_spring.json"],
        ["check", "--spec", "fixtures/mass_spring.json"],
        ["consistent", "m", "s", "--registry", "fixtures/registry.json"],
        ["equiv", "--spec", "fixtures/mass_spring.json", "fixtures/mass_spring_bindings.json",
         "fixtures/mass_spring_bindings.json"],
        ["nondim", "--spec", "fixtures/mass_spring.json", "fixtures/mass_spring_bindings.json"],
    ], ids=lambda argv: argv[0])
    def test_only_verify_loads_the_interval_pass(self, argv):
        loaded = _loaded_after(f"from piforge import cli; assert cli.main({argv!r}) == 0")
        assert "piforge.enclose" not in loaded

    @pytest.mark.parametrize("argv", [
        ["consistent", "m", "s", "--registry", "fixtures/registry.json"],
        ["pi"],  # a usage error: no --spec
    ], ids=["consistent", "usage-error"])
    def test_consistent_and_a_usage_error_build_no_basis(self, argv):
        loaded = _loaded_after(
            "from piforge import cli\n"
            f"try:\n cli.main({argv!r})\nexcept SystemExit:\n pass"
        )
        assert "piforge.pigroups" not in loaded
        assert ("piforge.units" in loaded) == (argv[0] == "consistent")
