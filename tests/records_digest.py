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

Each seed then runs its rounds again with every problem's dims swapped for
equal copies, other DimVector objects, and its reference for equal copies,
other Quantity objects over the copied dims. So each record's bindings
compare equal to the basis's dims, not identical, and the reference equal
to the one the special basis was anchored at in the first run. The script
exits 1, naming the first such record, if any record's fields differ from
the first run's; the digest covers the first run alone.
"""

import argparse
import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import records  # noqa: E402
from piforge import core  # noqa: E402


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
    differs = None
    for seed in args.seeds:
        state = records.prepare(seed, SimpleNamespace(root=ROOT))
        # the set-up check also keeps the slots a perturbed copy may move
        digest.update(repr((seed, records.check_setup(state))).encode())
        outputs = _run(state, args.rounds)
        for key, fields, equivalent in outputs:
            digest.update(repr((seed, *key, fields)).encode())
            count += 1
            equivalents += equivalent
        for p in state["problems"]:
            p["dims"] = [core.DimVector(w.system, w.exponents) for w in p["dims"]]
            p["ref"] = [core.Quantity(q.log_magnitude, w) for q, w in zip(p["ref"], p["dims"])]
        for (key, fields, _), (_, copied, _) in zip(outputs, _run(state, args.rounds)):
            if differs is None and copied != fields:
                differs = (seed, *key)
    print(f"{digest.hexdigest()}  {count} records, {equivalents} equivalent verdicts")
    if differs is not None:
        print("seed %s round %s problem %s: equal copies of the dims give other fields" % differs,
              file=sys.stderr)
        return 1
    return 0


def _run(state, rounds) -> list:
    """((round, tag), fields, equivalent verdicts) of every record, in order."""
    outputs = []
    for r in rounds:
        for op in records.round_ops(state, r):
            try:
                out = op.run()
                fields = _fields(out)
                equivalent = out[1].equivalent + out[2].equivalent
            except Exception as exc:  # an error is part of the output
                fields, equivalent = [type(exc).__name__, str(exc)], 0
            outputs.append(((r, op.tag), fields, equivalent))
    return outputs


if __name__ == "__main__":
    sys.exit(main())
