"""Regenerate the CLI golden files. Run from the repo root:

    python3 tests/regen_goldens.py

Inspect the diff before committing — these files pin byte-exact CLI output.
A case whose exit code is not the expected one is not written, and the
script then exits 1.
"""

import sys

from support import GOLDEN_CASES, GOLDENS, run_cli


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    wrong = 0
    for name, argv, expected_exit in GOLDEN_CASES:
        proc = run_cli(*argv)
        if proc.returncode == expected_exit:
            (GOLDENS / name).write_bytes(proc.stdout)
            status = ""
        else:
            wrong += 1
            status = f"  (expected exit {expected_exit}; not written)"
        print(f"{name}: exit {proc.returncode}, {len(proc.stdout)} bytes{status}")
        if proc.stderr:
            print(f"  stderr: {proc.stderr.decode().strip()}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
