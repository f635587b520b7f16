"""Pinned output digests: a change to any fuzz report or pi record of a
small slice of the benchmark workloads fails here.

Each test runs one digest script (`report_digest.py`, `records_digest.py`)
in a subprocess from the repository root and compares what it prints with
the value it printed before the change. A change that means to move these
outputs updates the pinned line, and says why.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, expected", [
    ("report_digest.py", ["--seeds", "0-1", "--rounds", "0", "--tols", "1e-9,0.5"],
     "79c87691697a41893faeecbcdc6cddd9ee2add501f2cd71361a11329f27cb1d4  144 reports, 44 counterexamples"),
    ("records_digest.py", ["--seeds", "0-1", "--rounds", "0-3"],
     "342b7abd45a4f35928d4570a02c06e8ecc8aad9048eedd74636837a976197cdd  128 records, 128 equivalent verdicts"),
], ids=["reports", "records"])
def test_digest_is_unchanged(script, args, expected):
    done = subprocess.run([sys.executable, str(ROOT / "tests" / script), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected
