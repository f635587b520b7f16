"""CLI contract: byte-identical golden outputs and documented exit codes."""

import json
import subprocess
import sys

import pytest

from piforge import cli, dsl, nondim, pigroups
from piforge.core import Quantity, format_magnitude

from support import FIXTURES, GOLDENS, GOLDEN_CASES, ROOT, run_cli


@pytest.mark.parametrize("golden,argv,expected_exit", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(golden, argv, expected_exit):
    proc = run_cli(*argv)
    assert proc.returncode == expected_exit, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / golden).read_bytes()


def test_outputs_are_reproducible():
    argv = ["verify", "--spec", "fixtures/hidden_constant.json", "--trials", "50", "--seed", "9"]
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


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
        proc = run_cli("pi", "--spec", "fixtures/mass_spring.json", "--tol", "-1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # hidden_constant is violated: a tolerance that let it pass would be unsound
        proc = run_cli("verify", "--spec", "fixtures/hidden_constant.json", "--tol", tol)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"--tol" in proc.stderr

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


def _write_spec(tmp_path, variables, relation):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"system": ["L"], "variables": variables, "relation": relation}))
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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "0"])
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
    # piforge has no runtime dependency; keep numpy from creeping back in
    code = "import sys, piforge, piforge.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, check=True
    )
    assert proc.stdout == b"False\n"
