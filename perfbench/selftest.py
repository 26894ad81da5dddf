"""Self-test: the traced run's exact counts repeat between runs.

    python3 perfbench/selftest.py    # from the root of a checkout

Runs the traced pass twice on tiny versions of the four workloads, in a
few seconds, and exits non-zero unless every check of the pass succeeds,
every count (d-separation calls, posteriors per replicate, pool tasks,
task bytes, cells, CSV bytes, candidate pairs) is identical between the
two passes, and the counts equal what follows from ALARM and the sizes.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from traced import count_errors, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "roc-paper": replace(WORKLOADS["roc-paper"], sizes=(5, 10), reps=2),
    "roc-largen": replace(WORKLOADS["roc-largen"], sizes=(200,), reps=2),
    "cli-roundtrip": replace(WORKLOADS["cli-roundtrip"], n_cases=300),
    "cli-quick": replace(WORKLOADS["cli-quick"], n_cases=50),
}


def main() -> int:
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    errors: list[list[str]] = []
    try:
        first = run_pass(ROOT, work, 7, errors, TINY)["counts"]
        second = run_pass(ROOT, work, 7, errors, TINY)["counts"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if first != second:
        errors.append([f"counts differ between runs: {first} vs {second}"])
    errors += count_errors(ROOT, TINY, first)
    for key, value in sorted(first.items()):
        print(f"{key:32s} {value}")
    failures = [e for errs in errors for e in errs]
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest: " + ("FAILED" if failures else f"ok, {len(errors)} checks"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
