"""Benchmark a parent commit against this tree in alternating pairs.

Usage, from the root of a git checkout:

    python3 tools/abbench.py PARENT [--workloads roc-largen,cli-quick]
        [--seeds 1-10] [--seconds 10] [--roc-default]

For each seed, ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once from a clone of PARENT under
``.perfbench-work/abbench/`` and once from this tree; the side that goes
first swaps from one seed to the next, so slow drift of the machine falls
on both sides alike. ``--roc-default`` adds a pseudo-workload,
``roc-default``: one ``bnscore roc`` at its defaults per side and seed,
timed from outside with ``wait4`` (wall_s, cpu_s, peak_rss_mb, counting
every worker it waited for), whose two CSVs must be byte-identical across
all runs of both sides.

It writes ``BENCH_<parent>.json`` and ``BENCH_<head>.json`` at the root,
named by short commit; the head is this tree's HEAD, so commit the change
first. Each file has ``perfbench/repeat.py``'s schema (``seconds``,
``trace``, ``machine``, and per workload its ``runs`` and a ``summary`` of
each metric's median and quartile spread as a share of the median) plus
``abbench``: both commits, the seeds, each seed's order, whether
``PYTHONDONTWRITEBYTECODE`` was set (so no run cached its bytecode), and per
workload and metric how many pairs each side won, by the metric's ``better``
direction in ``BENCHMARK.json`` (lower when it names none).

The parent is a ``git clone --shared`` rather than a worktree, so a run
writes nothing into this repository's ``.git`` and an interrupted one
leaves no worktree registered. Standard library only; not part of the
test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from repeat import _seeds, spread  # noqa: E402  (perfbench is not a package)

WORK = Path(".perfbench-work") / "abbench"
ROC_OUTPUTS = ("auc_summary.csv", "mean_roc.csv")


def _git(*args: str, cwd: Path | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def _checkout(commit: str) -> Path:
    """A clone of this repository at commit, made once and reused."""
    root = WORK / commit[:12]
    current = _git("rev-parse", "HEAD", cwd=root) if (root / ".git").is_dir() else None
    if current != commit:
        shutil.rmtree(root, ignore_errors=True)
        root.parent.mkdir(parents=True, exist_ok=True)
        _git("clone", "--quiet", "--shared", "--no-checkout", ".", str(root))
        _git("checkout", "--quiet", "--detach", commit, cwd=root)
    return root.resolve()


def _run_workload(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = root / ".perfbench-work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return {"seed": seed, **json.loads(lines[-1]),
            "machine": json.loads(record.read_text())["machine"]}


def _run_roc_default(root: Path, seed: int) -> dict:
    """One default ``bnscore roc`` from root's src, measured from outside."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory(dir=WORK.resolve()) as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bnscore.cli", "roc", "--out", out],
                                cwd=root, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        ok = os.waitstatus_to_exitcode(status) == 0
        digest = hashlib.sha256(
            b"".join(Path(out, name).read_bytes() for name in ROC_OUTPUTS) if ok else b""
        ).hexdigest()
    metrics = {"wall_s": (wall, "s"), "cpu_s": (usage.ru_utime + usage.ru_stime, "s"),
               "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MiB")}
    return {"seed": seed, "correct": ok, "attempted": 1, "failed": int(not ok),
            "outputs_sha256": digest,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _summary(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        summary[name] = {"median": median,
                         "iqr_frac": spread(values) if median else float("nan"),
                         "unit": first["unit"], "bound": bounds.get(name)}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="commit to compare this tree against")
    parser.add_argument("--workloads", default="roc-largen,cli-quick",
                        help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--roc-default", action="store_true",
                        help="also time the default roc once per side and seed")
    args = parser.parse_args(argv)
    if not Path("perfbench/run.py").is_file():
        parser.error("run from the root of a bnscore checkout")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    higher = {m["name"] for m in declared if m.get("better") == "higher"}
    commits = {"parent": _git("rev-parse", args.parent + "^{commit}"),
               "head": _git("rev-parse", "HEAD")}
    if commits["parent"] == commits["head"]:
        parser.error("PARENT is this tree's HEAD: commit the change first")
    if _git("status", "--porcelain", "--", "src", "perfbench"):
        parser.error("src or perfbench differs from HEAD: commit the change first")
    roots = {"parent": _checkout(commits["parent"]), "head": Path.cwd()}
    workloads = [w for w in args.workloads.split(",") if w]
    if args.roc_default:
        workloads.append("roc-default")
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds must give at least two pairs")

    runs = {side: {w: [] for w in workloads} for side in roots}
    orders = []
    for i, seed in enumerate(seeds):
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        orders.append({"seed": seed, "first": order[0]})
        for workload in workloads:
            for side in order:
                if workload == "roc-default":
                    run = _run_roc_default(roots[side], seed)
                else:
                    run = _run_workload(roots[side], workload, seed, args.seconds)
                runs[side][workload].append(run)
                print(f"seed {seed} {workload:12s} {side:6s} correct={run['correct']} "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in run["metrics"].items()),
                      flush=True)

    wins: dict[str, dict] = {}
    for workload in workloads:
        pairs = list(zip(runs["parent"][workload], runs["head"][workload]))
        wins[workload] = {}
        for name in pairs[0][0]["metrics"]:
            tally = {"parent": 0, "head": 0, "ties": 0}
            for parent_run, head_run in pairs:
                p, h = parent_run["metrics"][name]["value"], head_run["metrics"][name]["value"]
                if name in higher:
                    p, h = -p, -h
                tally["ties" if p == h else ("head" if h < p else "parent")] += 1
            wins[workload][name] = tally
    if "roc-default" in workloads:
        digests = {r["outputs_sha256"] for side in runs for r in runs[side]["roc-default"]}
        wins["roc-default"]["outputs_identical"] = len(digests) == 1

    # Without a bytecode cache every command compiles the package, which
    # moves its CPU time and peak memory; the runs inherit this setting.
    dont_write_bytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    ok = True
    for side, root in roots.items():
        report = {}
        for workload in workloads:
            side_runs = runs[side][workload]
            ok &= all(r["correct"] for r in side_runs)
            report[workload] = {"runs": side_runs, "summary": _summary(side_runs, bounds)}
        machine = next((r["machine"] for w in workloads for r in runs[side][w] if "machine" in r),
                       None)
        path = Path(f"BENCH_{commits[side][:7]}.json")
        path.write_text(json.dumps(
            {"seconds": args.seconds, "trace": 0, "machine": machine, "workloads": report,
             "abbench": {"side": side, "commits": commits, "seeds": seeds, "orders": orders,
                         "dont_write_bytecode": dont_write_bytecode, "wins": wins}},
            indent=1) + "\n")
        print(f"wrote {path}")

    print(f"{'workload':12s} {'metric':18s} {'parent':>10s} {'head':>10s} "
          f"{'parent IQR':>10s}  head won")
    for workload in workloads:
        for name, tally in wins[workload].items():
            if name == "outputs_identical":
                print(f"{workload:12s} outputs identical across every run: {tally}")
                ok &= tally
                continue
            medians = [statistics.median(r["metrics"][name]["value"] for r in runs[s][workload])
                       for s in roots]
            q1, _, q3 = statistics.quantiles(
                [r["metrics"][name]["value"] for r in runs["parent"][workload]], n=4)
            print(f"{workload:12s} {name:18s} {medians[0]:10.4g} {medians[1]:10.4g} "
                  f"{q3 - q1:10.4g}  {tally['head']}/{len(seeds)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
