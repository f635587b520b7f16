"""Tests of the benchmark itself: every correctness check accepts the right
answer and rejects a deliberately wrong one.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import ladder  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
from common import ChildResult  # noqa: E402

# mass_spring: m [M], k [M T^-2], t [T]; k t^2 / m is its one group.
MASS_SPRING = [[1, 1, 0], [0, -2, 1]]
CANONICAL = [[-1, 1, 2]]
SPECIAL = [[F(-1, 2), F(1, 2), 1]]


def _bases(**changes):
    answer = dict(canonical=CANONICAL, special=SPECIAL, pivots=(0, 1), frees=(2,),
                  trans=[[F(1, 2)]])
    answer.update(changes)
    return checks.check_bases(MASS_SPRING, answer["canonical"], answer["special"],
                              answer["pivots"], answer["frees"], answer["trans"])


def test_bases_accepts_the_answer():
    assert _bases() == []


def test_bases_rejects_a_scaled_group():
    assert any("primitive" in e for e in _bases(canonical=[[-2, 2, 4]], trans=[[F(1, 4)]]))


def test_bases_rejects_a_negated_group():
    assert any("positive" in e for e in _bases(canonical=[[1, -1, -2]], trans=[[F(-1, 2)]]))


def test_bases_rejects_swapped_pivots():
    assert _bases(pivots=(1, 0)) != []
    assert _bases(pivots=(0, 2), frees=(1,)) != []


def test_bases_rejects_a_scaled_special_group():
    assert _bases(special=[[-1, 1, 2]], trans=[[1]]) != []


def test_bases_rejects_a_wrong_transition():
    assert any("transition" in e for e in _bases(trans=[[1]]))


def test_bases_rejects_a_group_that_keeps_a_dimension():
    assert any("annihilate" in e for e in _bases(canonical=[[-1, 1, 1]]))


def test_bases_rejects_a_missing_group():
    assert _bases(canonical=[], special=[], trans=[]) != []


def test_bases_rejects_dependent_groups_in_a_wider_problem():
    # x [L], y [L], z [L]: two groups; repeating one is dependent.
    matrix = [[1, 1, 1]]
    good = [[-1, 1, 0], [-1, 0, 1]]
    assert checks.check_bases(matrix, good, good, (0,), (1, 2)) == []
    assert checks.check_bases(matrix, [good[0], good[0]], good, (0,), (1, 2)) != []


def test_rank_and_pivots_by_own_elimination():
    assert checks.rank([[1, 2], [2, 4]]) == 1
    assert checks.first_independent([[1, 2, 0], [0, 0, 1]]) == (0, 2)
    assert checks.used_slots([[1, 2, 0], [0, 0, 1]]) == (0, 1)


XS = [0.3, 1.1, 0.4]


def _record(**changes):
    groups = [[-1, 1, 2]]
    xs = XS
    ys = [xs[0] + 0.5, xs[1] + 0.5 - 2 * 0.2, xs[2] + 0.2]   # M by e^0.5, T by e^0.2
    pi = checks.dot(groups[0], xs)
    rep = [0.0, 0.0, pi / 2]
    answer = dict(groups=groups, xs=xs, ys=ys, pis=[pi], same=True, differs=False,
                  rep=rep, ref=[0.0, 0.0, 0.0], pivots=(0, 1))
    answer.update(changes)
    return checks.check_record(**answer)


def test_record_accepts_the_answer():
    assert _record() == []


def test_record_rejects_flipped_verdicts():
    assert _record(same=False) != []
    assert _record(differs=True) != []


def test_record_rejects_a_wrong_pi_value():
    assert _record(pis=[checks.dot([-1, 1, 2], XS) + 1e-6]) != []


def test_record_rejects_a_representative_off_reference_or_class():
    assert _record(rep=[0.1, 0.0, 0.05]) != []
    assert _record(rep=[0.0, 0.0, 0.0]) != []


def test_record_rejects_a_copy_that_is_not_a_rescaling():
    assert any("invariant" in e for e in _record(ys=[0.3, 1.1, 0.0]))


HIDDEN = {"x": {"L": 1}, "t": {"T": 1}}


def _hidden(v):
    return checks.rel_eq(v["x"], 299792458 * v["t"])


def test_fuzz_accepts_a_flipping_counterexample():
    ce = ({"x": 299792458 * 2.0, "t": 2.0}, {"L": 2.0, "T": 1.0}, True, False)
    assert checks.check_fuzz(False, _hidden, HIDDEN, 10, 0, ce) == []


def test_fuzz_rejects_a_counterexample_that_does_not_flip():
    ce = ({"x": 299792458 * 2.0, "t": 2.0}, {"L": 3.0, "T": 3.0}, True, False)
    assert checks.check_fuzz(False, _hidden, HIDDEN, 10, 0, ce) != []


def test_fuzz_rejects_flipped_reported_values():
    ce = ({"x": 299792458 * 2.0, "t": 2.0}, {"L": 2.0, "T": 1.0}, False, True)
    assert checks.check_fuzz(False, _hidden, HIDDEN, 10, 0, ce) != []


def test_fuzz_rejects_wrong_verdicts():
    assert checks.check_fuzz(False, _hidden, HIDDEN, 10, 10, None) != []
    assert checks.check_fuzz(True, _hidden, HIDDEN, 10, 9, ({}, {}, True, False)) != []
    assert checks.check_fuzz(True, _hidden, HIDDEN, 10, 10, None) == []


def _child(code, out):
    return ChildResult(code=code, out=out, err="", seconds=0.3, max_rss_kb=1)


def _ctx():
    return SimpleNamespace(root=ROOT)


def test_cli_clash_check():
    registry = json.loads((ROOT / "fixtures" / "registry.json").read_text())
    check = session._clash_check(registry)
    good = {"consistent": False, "witness": {"exponents": ["-1", "1", "1"], "clash_factor": "185200"}}
    assert check(_child(1, json.dumps(good))) == []
    assert check(_child(0, json.dumps(good))) != []
    wrong = json.loads(json.dumps(good))
    wrong["witness"]["clash_factor"] = "185300"
    assert check(_child(1, json.dumps(wrong))) != []
    wrong["witness"] = {"exponents": ["-1", "1", "2"], "clash_factor": "185200"}
    assert check(_child(1, json.dumps(wrong))) != []


def test_cli_exit_and_prefix_checks():
    check = session._exit(0, "equivalent\n")
    assert check(_child(0, "equivalent\n")) == []
    assert check(_child(1, "equivalent\n")) != []
    assert check(_child(0, "not equivalent: pi group 0 differs\n")) != []


def test_cli_nondim_checks():
    text = session._nondim_text_check({"m": 2, "k": 8, "t": 3})
    assert text(_child(0, "pi values: 36\n")) == []
    assert text(_child(0, "pi values: 35\n")) != []
    as_json = session._nondim_json_check({"m": 2, "k": 8, "t": 3}, MASS_SPRING)
    good = {"pi_values": ["36"], "canonical_representative": {"m": "1", "k": "1", "t": "6"}}
    assert as_json(_child(0, json.dumps(good))) == []
    bad = {"pi_values": ["36"], "canonical_representative": {"m": "2", "k": "8", "t": "3"}}
    assert as_json(_child(0, json.dumps(bad))) != []


def test_cli_hidden_constant_check():
    check = session._hidden_constant_check(_ctx())
    out = {"trials": 10, "passed": 0, "seed": 0, "counterexample": {
        "bindings": {"x": "599584916", "t": "2"}, "factors": {"L": "2", "T": "1"},
        "before": True, "after": False}}
    assert check(_child(1, json.dumps(out))) == []
    out["counterexample"]["factors"] = {"L": "2", "T": "2"}
    assert check(_child(1, json.dumps(out))) != []
    out["counterexample"] = None
    assert check(_child(0, json.dumps(out))) != []


def test_cli_pi_check():
    check = session._pi_check(json.loads((ROOT / "fixtures" / "mass_spring.json").read_text()))
    out = {"canonical": [["-1", "1", "2"]], "special": {
        "pivot_indices": [0, 1], "free_indices": [2], "groups": [["-1/2", "1/2", "1"]]}}
    assert check(_child(0, json.dumps(out))) == []
    out["canonical"] = [["-2", "2", "4"]]
    assert check(_child(0, json.dumps(out))) != []


def test_ladder_operation_passes_its_check_and_a_corrupted_output_fails():
    from piforge import core

    rng = random.Random(0)
    system = core.DimSystem(("D0", "D1", "D2"))
    op = ladder._op("3x6", system, ladder.dimension_matrix(rng, 3, 6))
    basis, special, trans, report = op.run()
    assert op.check((basis, special, trans, report)) == []
    swapped = type(special)(special.base, special.pivot_indices[::-1], special.free_indices)
    assert op.check((basis, swapped, trans, report)) != []


def test_corpus_truth_functions_agree_with_the_relation_language():
    from piforge import core, dsl

    rng = random.Random(1)
    for template, _, _ in corpus.GENERATED:
        for _ in range(5):
            raw, dims, truth = corpus.generate(rng, template)
            spec = dsl.problem_spec_from_dict(raw)
            for _ in range(20):
                values = {v: math.exp(rng.uniform(-6.9, 6.9)) for v in raw["variables"]}
                bindings = {v: core.Quantity(math.log(values[v]), spec.env[v]) for v in values}
                assert dsl.evaluate(spec.relation, bindings) == truth(values), raw["relation"]


def test_corpus_non_invariant_relations_always_yield_a_counterexample():
    from piforge import dsl, harness

    rng = random.Random(2)
    for _ in range(40):
        for template, invariant, _ in corpus.GENERATED:
            raw, dims, truth = corpus.generate(rng, template)
            report = harness.fuzz_invariance(
                dsl.problem_spec_from_dict(raw), corpus.TRIALS, seed=rng.randrange(2**31))
            ce = report.counterexample
            found = None if ce is None else (ce.bindings, ce.factors, ce.before, ce.after)
            assert checks.check_fuzz(invariant, truth, dims, report.trials, report.passed,
                                     found) == [], raw


def test_latencies_are_scaled_by_their_local_reference():
    nominal = run.REFERENCE_NOMINAL_S
    # The first operation ran while the reference took twice its nominal time.
    results = [("a", 0.004, None, 2 * nominal), ("a", 0.002, None, nominal)]
    scaled, raw = run.end_to_end(results, child_peak_kb=2048)
    assert math.isclose(scaled["op_p50_ms"], 2.0)
    assert math.isclose(scaled["ops_per_s"], 500.0)
    assert math.isclose(raw["ops_per_s"], 2 / 0.006)
    assert math.isclose(raw["slowdown"], 1.5)
    assert scaled["peak_rss_mb"] == 2.0


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = run._modules()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(modules)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pi-records", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
