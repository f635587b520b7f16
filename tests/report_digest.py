"""One SHA-256 over every invariance report of the fuzz-corpus benchmark
workload, to show that a change leaves the fuzzer's output as it was. Run
from the repo root, in each of the two checkouts to compare:

    python3 tests/report_digest.py --seeds 0-11 --rounds 0-1 --tols 1e-9,0.5,1.5,0.0

For each corpus seed, round and tol it calls `fuzz_invariance` on every
corpus relation with the trials and per-relation seeds the workload uses
(bench/corpus.py, which it reads and never edits), and hashes each report
field by field, floats as hex; an error raised is hashed as its type and
text. It prints the digest with the count of reports and counterexamples.
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402
from piforge.harness import fuzz_invariance  # noqa: E402


def _span(text: str) -> range:
    """"3" or "0-11", ends included."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _fields(report) -> list:
    ce = report.counterexample
    fields = [report.trials, report.passed, report.seed, report.inapplicable, report.undecided]
    if ce is not None:
        fields += [ce.trial_index, ce.before, ce.after]
        fields += [(k, v.hex()) for k, v in ce.log_bindings.items()]
        fields += [(k, v.hex()) for k, v in ce.factors.items()]
    return fields


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_span, default=_span("0-11"))
    parser.add_argument("--rounds", type=_span, default=_span("0-1"))
    parser.add_argument("--tols", type=lambda t: [float(x) for x in t.split(",")],
                        default=[1e-9, 0.5, 1.5, 0.0])
    args = parser.parse_args()
    digest, reports, counterexamples = hashlib.sha256(), 0, 0
    for seed in args.seeds:
        state = corpus.prepare(seed, SimpleNamespace(root=ROOT))
        for r in args.rounds:
            # each relation's fuzz seed, drawn as `corpus.round_ops` draws it
            rng = random.Random(f"{corpus.NAME}:{seed}:{r}")
            fuzz_seeds = [rng.randrange(2**31) for _ in state["corpus"]]
            for (name, _, spec, _, _), fuzz_seed in zip(state["corpus"], fuzz_seeds):
                for tol in args.tols:
                    try:
                        report = fuzz_invariance(spec, corpus.TRIALS, seed=fuzz_seed, tol=tol)
                        fields = _fields(report)
                        counterexamples += report.counterexample is not None
                    except Exception as exc:  # an error is part of the output
                        fields = [type(exc).__name__, str(exc)]
                    digest.update(repr((seed, r, name, fuzz_seed, tol.hex(), fields)).encode())
                    reports += 1
    print(f"{digest.hexdigest()}  {reports} reports, {counterexamples} counterexamples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
