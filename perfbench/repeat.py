"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads roc-largen,cli-quick --seeds 1-10 \
        --seconds 50 --trace 0 [--out perfbench/baseline/NAME.json]

For every workload and metric it prints the median of the per-run values
and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--out`` writes the runs,
the summary and the machine description as JSON.  Run it from the root of
a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RESULTS = Path(".perfbench-work") / "results"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report, ok, machine = {}, True, None
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            runs.append({"seed": seed, **result})
            record = RESULTS / f"{workload}-seed{seed}-trace{args.trace}.json"
            machine = json.loads(record.read_text())["machine"]
        summary = {}
        if len(runs) >= 2:
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                median = statistics.median(values)
                iqr = spread(values) if median else float("nan")
                summary[name] = {"median": median, "iqr_frac": iqr,
                                 "unit": runs[0]["metrics"][name]["unit"],
                                 "bound": bounds.get(name)}
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    flag = "ok" if iqr <= bound / 3 else ("WITHIN BOUND" if iqr <= bound else "OVER BOUND")
                print(f"{workload:14s} {name:34s} median {median:12.6g} "
                      f"iqr/median {iqr:7.4f}  bound {bound}  {flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "machine": machine,
             "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
