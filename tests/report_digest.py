"""One SHA-256 over every invariance report of the fuzz-corpus benchmark
workload, to show that a change leaves the fuzzer's output as it was. Run
from the repo root, in each of the two checkouts to compare:

    python3 tests/report_digest.py --seeds 0-11 --rounds 0-1 --tols 1e-9,0.5,1.5,0.0

For each corpus seed, round and tol it calls `fuzz_invariance` on every
corpus relation with the trials and per-relation seeds the workload uses
(bench/corpus.py, which it reads and never edits), and hashes each report
field by field, floats as hex; an error raised is hashed as its type and
text. It prints the digest with the count of reports and counterexamples.

A second line, the verdict digest, hashes each report with its counts left
out wherever it holds a counterexample: there it hashes only the
counterexample (trial index, truth values, bindings and factors); an error
and a report without a counterexample are hashed as in the first line. A
change that moves only the passed, inapplicable or undecided counts of
refuted reports moves the first line and leaves the second as it was.
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


def _counterexample_fields(ce) -> list:
    return [ce.trial_index, ce.before, ce.after,
            *((k, v.hex()) for k, v in ce.log_bindings.items()),
            *((k, v.hex()) for k, v in ce.factors.items())]


def _fields(report) -> list:
    ce = report.counterexample
    fields = [report.trials, report.passed, report.seed, report.inapplicable, report.undecided]
    return fields if ce is None else fields + _counterexample_fields(ce)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_span, default=_span("0-11"))
    parser.add_argument("--rounds", type=_span, default=_span("0-1"))
    parser.add_argument("--tols", type=lambda t: [float(x) for x in t.split(",")],
                        default=[1e-9, 0.5, 1.5, 0.0])
    args = parser.parse_args()
    digest, verdicts, reports, counterexamples = hashlib.sha256(), hashlib.sha256(), 0, 0
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
                        fields = verdict = _fields(report)
                        if report.counterexample is not None:
                            verdict = _counterexample_fields(report.counterexample)
                            counterexamples += 1
                    except Exception as exc:  # an error is part of the output
                        fields = verdict = [type(exc).__name__, str(exc)]
                    key = (seed, r, name, fuzz_seed, tol.hex())
                    digest.update(repr((*key, fields)).encode())
                    verdicts.update(repr((*key, verdict)).encode())
                    reports += 1
    print(f"{digest.hexdigest()}  {reports} reports, {counterexamples} counterexamples")
    print(f"{verdicts.hexdigest()}  verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
