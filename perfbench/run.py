"""bnscore benchmark: time the CLI workloads from outside, or run the traced pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roc-largen --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the workload's CLI commands as child processes, one
after another, for about ``--seconds`` seconds, checks every output, and
reports the end-to-end metrics.  ``--trace 1`` runs the traced in-process
pass instead (see ``traced.py``) and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the machine description, goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Fewest fresh interpreters started to measure ``setup_s``; the median is reported.
MIN_SETUPS = 5
WORK_DIR = ".perfbench-work"


def machine(root: Path) -> dict:
    """What a result depends on besides the code: host, versions, commit."""
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def measure(workload, runner, seed: int, seconds: float) -> dict:
    """Passes of the workload, each after one set-up probe, until ``seconds`` is spent.

    Another probe and pass start while half of their medians still fits in
    the time left, so the run ends within half a pass of ``seconds``.
    Probing between passes spreads the set-up samples over the whole run;
    at least ``MIN_SETUPS`` are taken.
    """
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setups.append(runner.python("-c", workload.setup_code(seed)))
        passes.append(workload.run_pass(runner, seed))
        walls = [sum(op.result.wall_s for op in ops) for ops in passes]
        left = seconds - (time.perf_counter() - start)
        if statistics.median(walls) / 2 + statistics.median(s.wall_s for s in setups) / 2 > left:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.python("-c", workload.setup_code(seed)))
    errors = [[] if s.ok else [f"set-up probe: exit {s.returncode}"] for s in setups]
    errors += workload.errors(runner.root, seed, passes)
    commands = [op.result for ops in passes for op in ops]
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(s.wall_s for s in setups), "s"),
        "cpu_s": (statistics.median(sum(op.result.cpu_s for op in ops) for ops in passes), "s"),
        "peak_rss_mb": (
            statistics.median(max(op.result.peak_rss_mb for op in ops) for ops in passes),
            "MiB",
        ),
        "replicates_per_s": (workload.replicates / wall_s, "1/s"),
        "cmd_s_p50": (statistics.median(c.wall_s for c in commands), "s"),
    }
    return {
        "metrics": metrics,
        "errors": errors,
        "counts": {"passes": len(passes), "setup_probes": len(setups),
                   "commands": len(commands), "replicates_per_pass": workload.replicates},
        "outputs_sha256": workload.outputs(passes),
        "passes": [
            {"wall_s": w, "cpu_s": sum(op.result.cpu_s for op in ops),
             "peak_rss_mb": max(op.result.peak_rss_mb for op in ops)}
            for w, ops in zip(walls, passes)
        ],
        "commands": [" ".join(op.result.args[2:]) for op in passes[0]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bnscore" / "__init__.py").is_file():
        print("error: src/bnscore not found; run from the root of a bnscore checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import traced
    from clirun import Runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / WORK_DIR / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(root, work)
        if args.trace:
            outcome = traced.run(runner, args.seed, args.seconds,
                                 results / f"{name}.spans.jsonl")
        else:
            outcome = measure(WORKLOADS[args.workload], runner, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = outcome.pop("errors")
    attempted, failed = len(errors), sum(1 for e in errors if e)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "machine": machine(root),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for errs in errors for e in errs],
        **outcome,
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=1, default=list) + "\n")

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} commit={m['git_commit']}")
    for key, value in outcome.get("counts", {}).items():
        print(f"{key:36s} {value}")
    for key, (value, unit) in outcome["metrics"].items():
        print(f"{key:36s} {value:.6g} {unit}")
    print(f"{'fail_ratio':36s} {failed}/{attempted}")
    for err in record["errors"]:
        print(f"FAILED: {err}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
