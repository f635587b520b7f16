"""Pinned output digests: a change to any fuzz report or pi record of a
small slice of the benchmark workloads fails here.

Each test runs one digest script (`report_digest.py`, `records_digest.py`)
in a subprocess from the repository root and compares what it prints with
the value it printed before the change. A change that means to move these
outputs updates the pinned line, and says why. The report script prints a
second line, its verdict digest, which leaves out the counts of a report
that holds a counterexample: a change that moves only those counts moves
the first line and not the second.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, expected", [
    ("report_digest.py", ["--seeds", "0-1", "--rounds", "0", "--tols", "1e-9,0.5"],
     "1b6c49248ec828ec9df9b91ab549c228e7988902d0e6316dbc4aa2cb7499c1f0  144 reports, 44 counterexamples\n"
     # the verdicts: each report with a counterexample hashed without its counts
     "4e6781cab86d78c72642b789518bba0d2a4b86695825a24ae19f1c6a5f5dd7cf  verdicts"),
    ("records_digest.py", ["--seeds", "0-1", "--rounds", "0-3"],
     "342b7abd45a4f35928d4570a02c06e8ecc8aad9048eedd74636837a976197cdd  128 records, 128 equivalent verdicts"),
], ids=["reports", "records"])
def test_digest_is_unchanged(script, args, expected):
    done = subprocess.run([sys.executable, str(ROOT / "tests" / script), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected
