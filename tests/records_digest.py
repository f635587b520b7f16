"""One SHA-256 over every record of the pi-records benchmark workload, to
show that a change leaves the record path's output as it was. Run from the
repo root, in each of the two checkouts to compare:

    python3 tests/records_digest.py --seeds 0-7 --rounds 0-39

For each seed it builds the workload's bases and references and hashes
the set-up check's errors (none, on a working tree); then for each round it
runs every record the workload runs (bench/records.py, which it reads and
never edits): pi_values, equivalent against a rescaled and a perturbed copy,
and canonical_rep. It hashes the pi-value logs, both verdicts with their
mismatch_index, and the representative's logs, floats as hex; an error
raised is hashed as its type and text. It prints the digest with the count
of records and of equivalent verdicts.
"""

import argparse
import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import records  # noqa: E402


def _span(text: str) -> range:
    """"3" or "0-7", ends included."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _verdict(v) -> list:
    return [v.equivalent, v.reason.value, v.mismatch_index]


def _fields(out) -> list:
    values, same, differs, rep = out
    return [[v.hex() for v in values.log_values], _verdict(same), _verdict(differs),
            [q.log_magnitude.hex() for q in rep]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_span, default=_span("0-7"))
    parser.add_argument("--rounds", type=_span, default=_span("0-39"))
    args = parser.parse_args()
    digest, count, equivalents = hashlib.sha256(), 0, 0
    for seed in args.seeds:
        state = records.prepare(seed, SimpleNamespace(root=ROOT))
        # the set-up check also keeps the slots a perturbed copy may move
        digest.update(repr((seed, records.check_setup(state))).encode())
        for r in args.rounds:
            for op in records.round_ops(state, r):
                try:
                    out = op.run()
                    fields = _fields(out)
                    equivalents += out[1].equivalent + out[2].equivalent
                except Exception as exc:  # an error is part of the output
                    fields = [type(exc).__name__, str(exc)]
                digest.update(repr((seed, r, op.tag, fields)).encode())
                count += 1
    print(f"{digest.hexdigest()}  {count} records, {equivalents} equivalent verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
