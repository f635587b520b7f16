"""CLI contract: byte-identical golden outputs and documented exit codes."""

import json

import pytest

from support import FIXTURES, GOLDENS, GOLDEN_CASES, run_cli


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

    def test_missing_binding_is_usage_failure(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"m": 2, "k": 8}')
        proc = run_cli(
            "equiv", "--spec", "fixtures/mass_spring.json",
            str(a), "fixtures/mass_spring_bindings.json",
        )
        assert proc.returncode == 2


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
