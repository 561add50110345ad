#!/usr/bin/env python3
"""Rewrite tests/golden/digests.json from the current code.

    PYTHONPATH=src python scripts/update_golden_digests.py

Runs every case of tests/test_golden_digests.py in a temporary directory
and writes each artifact's SHA-256 with the numpy version and the BLAS and
LAPACK builds in use. A change
that moves a digest on purpose names each moved artifact where it is
described; `git diff tests/golden/digests.json` lists them.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from test_golden_digests import CASES, DIGESTS, case_digests, linalg_builds  # noqa: E402


def main():
    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = case_digests(name, Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, **linalg_builds(), "cases": cases},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, cases.values()))} digests of {len(cases)} cases to {DIGESTS}")


if __name__ == "__main__":
    main()
