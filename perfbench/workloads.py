"""The four benchmark workloads and the checks on their outputs.

Each workload runs the CLI as child processes, one command after another
(a closed loop with one client).  ``run_pass`` runs one pass of the
workload's commands; ``errors`` checks every command of every pass after
timing has ended, against in-process results of the same library, and
returns one list of error strings per command.  A command fails when it
exits non-zero or any of its checks fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import bnscore
from bnscore import genbench, rocstats

from clirun import CmdResult, Runner

#: Grid points per vertically averaged ROC curve (one per negative pair + 1).
GRID_POINTS = 47
LN10 = math.log(10.0)


@dataclass(frozen=True)
class Op:
    """One command of a pass and what its checks need from it."""

    result: CmdResult
    evidence: Any = None


def alarm_file(root: Path) -> Path:
    return root / "src" / "bnscore" / "data" / "alarm.bn"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _exit_errors(op: Op) -> list[str]:
    if op.result.ok:
        return []
    tail = op.result.stderr.strip().splitlines()[-1:] or [""]
    return [f"{' '.join(op.result.args)}: exit {op.result.returncode}: {tail[0]}"]


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


@dataclass(frozen=True)
class RocWorkload:
    """``bnscore roc`` at fixed sizes, replicates and metrics."""

    name: str
    sizes: tuple[int, ...]
    reps: int
    metrics: tuple[str, ...]

    @property
    def replicates(self) -> int:
        """One replicate: one sampled dataset scored by every metric."""
        return len(self.sizes) * self.reps

    def args(self, seed: int, out: Path) -> list[str]:
        return [
            "roc",
            "--sizes", ",".join(map(str, self.sizes)),
            "--reps", str(self.reps),
            "--metrics", ",".join(self.metrics),
            "--seed", str(seed),
            "--out", str(out),
        ]

    def setup_code(self, seed: int) -> str:
        return (
            "import bnscore; doc = bnscore.load_alarm(); "
            f"bnscore.enumerate_pair_sets(doc.net, 46, {seed})"
        )

    def run_pass(self, runner: Runner, seed: int) -> list[Op]:
        out = runner.work / "roc"
        res = runner.cli(*self.args(seed, out))
        files = None
        if res.ok:
            files = tuple(
                (out / name).read_text() for name in ("auc_summary.csv", "mean_roc.csv")
            )
        return [Op(res, files)]

    def errors(self, root: Path, seed: int, passes: list[list[Op]]) -> list[list[str]]:
        first = passes[0][0].evidence
        out = []
        for (op,) in passes:
            errs = _exit_errors(op)
            if not errs:
                errs += roc_csv_errors(*op.evidence, self.sizes, self.metrics, self.reps)
                _expect(errs, "stdout lines", len(op.result.stdout.splitlines()),
                        len(self.sizes) * len(self.metrics))
                if op.evidence != first:
                    errs.append("CSVs differ from the first pass with the same seed")
            out.append(errs)
        return out

    def outputs(self, passes: list[list[Op]]) -> dict[str, str]:
        files = passes[0][0].evidence or ("", "")
        return {
            name: _digest(text.encode())
            for name, text in zip(("auc_summary.csv", "mean_roc.csv"), files)
        }


def roc_csv_errors(summary: str, curves: str, sizes, labels, reps) -> list[str]:
    """Shape and range checks on ``auc_summary.csv`` and ``mean_roc.csv``."""
    errs: list[str] = []
    try:
        rows = list(csv.DictReader(io.StringIO(summary)))
        _expect(errs, "auc_summary rows", len(rows), len(sizes) * len(labels))
        for row in rows:
            lo, mean, hi = (float(row[k]) for k in ("ci_low", "mean_auc", "ci_high"))
            if not 0.0 <= lo <= mean <= hi <= 1.0:
                errs.append(f"auc_summary row {row}: need 0 <= ci_low <= mean <= ci_high <= 1")
            _expect(errs, "auc_summary reps", int(row["reps"]), reps)
        points = defaultdict(list)
        for row in csv.DictReader(io.StringIO(curves)):
            points[(row["metric"], int(row["n"]))].append(
                (float(row["fpr"]), float(row["tpr"]))
            )
        _expect(errs, "mean_roc curves", set(points),
                {(label, n) for n in sizes for label in labels})
        for key, pts in points.items():
            _expect(errs, f"grid points of {key}", len(pts), GRID_POINTS)
            if pts[0][0] != 0.0 or pts[-1] != (1.0, 1.0) or not all(
                0.0 <= t <= 1.0 for _, t in pts
            ):
                errs.append(f"curve {key} must run from fpr 0 to (1, 1) with tpr in [0, 1]")
    except (KeyError, ValueError, IndexError) as exc:
        errs.append(f"malformed roc CSV: {exc!r}")
    return errs


def metric_spec(token: str) -> bnscore.MetricSpec:
    """``k2``, ``gu`` or ``bdeu<alpha0>``, as ``roc --metrics`` spells them."""
    if token.startswith("bdeu"):
        return bnscore.MetricSpec.bdeu(float(token[4:]))
    return bnscore.MetricSpec(token)


def _score_args(token: str, net: Path, data: Path) -> list[str]:
    kind = metric_spec(token).kind
    alpha0 = ["--alpha0", token[4:]] if kind == "bdeu" else []
    return ["score", "--metric", kind, *alpha0, "--net", str(net), "--data", str(data)]


def _sample_and_score(
    runner: Runner, seed: int, n_cases: int, metrics, name: str
) -> list[Op]:
    """``sample`` one dataset to CSV, then ``score`` it once per metric."""
    net = alarm_file(runner.root)
    path = runner.work / name
    sample = runner.cli("sample", "--net", str(net), "--n", str(n_cases),
                        "--seed", str(seed), "--out", str(path))
    digest = _digest(path.read_bytes()) if sample.ok else None
    ops = [Op(sample, digest)]
    ops += [Op(runner.cli(*_score_args(m, net, path))) for m in metrics]
    return ops


def _sample_and_score_expected(root: Path, seed: int, n_cases: int, metrics):
    """In-process CSV digest and ``score`` stdout for every metric."""
    doc = bnscore.parse_network(alarm_file(root).read_text())
    data = genbench.forward_sample(doc.net, n_cases, seed)
    digest = _digest(bnscore.write_dataset(data).encode())
    scores = [
        f"log10_score={bnscore.log_score(metric_spec(m), doc.structure, data) / LN10:.12g}\n"
        for m in metrics
    ]
    return digest, scores


def _sample_and_score_errors(ops: list[Op], n_cases: int, expected) -> list[list[str]]:
    """The written CSV and every score equal the in-process results."""
    digest, scores = expected
    sample, *scored = ops
    errs = _exit_errors(sample)
    if not errs:
        _expect(errs, "sample stdout", sample.result.stdout.split(" to ")[0],
                f"wrote {n_cases} cases")
        _expect(errs, "dataset CSV sha256", sample.evidence, digest)
    out = [errs]
    for op, want in zip(scored, scores):
        errs = _exit_errors(op)
        if not errs:
            _expect(errs, " ".join(op.result.args[2:5]), op.result.stdout, want)
        out.append(errs)
    return out


@dataclass(frozen=True)
class RoundtripWorkload:
    """``sample`` a large dataset to CSV, then ``score`` it back per metric."""

    name: str
    n_cases: int
    metrics: tuple[str, ...]
    replicates = 1  # one dataset sampled and scored by every metric per pass

    def setup_code(self, seed: int) -> str:
        return "import bnscore; bnscore.load_alarm()"

    def run_pass(self, runner: Runner, seed: int) -> list[Op]:
        return _sample_and_score(runner, seed, self.n_cases, self.metrics, "cases.csv")

    def errors(self, root: Path, seed: int, passes: list[list[Op]]) -> list[list[str]]:
        expected = _sample_and_score_expected(root, seed, self.n_cases, self.metrics)
        return [e for ops in passes for e in _sample_and_score_errors(ops, self.n_cases, expected)]

    def outputs(self, passes: list[list[Op]]) -> dict[str, str]:
        return {"cases.csv": passes[0][0].evidence or ""}


def dsep_query(root: Path, seed: int) -> tuple[str, str, list[str]]:
    """A seeded conditional d-separation query on ALARM: x, y, given."""
    names = [v.name for v in bnscore.parse_network(alarm_file(root).read_text()).structure.variables]
    rng = random.Random(seed)
    x, y = rng.sample(names, 2)
    rest = [n for n in names if n not in (x, y)]
    return x, y, rng.sample(rest, rng.randint(0, 3))


def expected_bench_rows(spec: genbench.ExampleSpec) -> int:
    per_size = len(spec.alpha0_values) + 2  # BDeu per alpha0, then K2 and GU
    sweep = len(spec.sweep) + 1 if spec.sweep is not None else 0  # grid + bdeu_max
    return len(spec.sizes) * (per_size + sweep)


def bench_errors(stdout: str, example: int) -> list[str]:
    """Row count, finite-or-inf ratios, and byte equality with in-process output."""
    spec = genbench.EXAMPLES[example]
    errs: list[str] = []
    try:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        _expect(errs, f"bench {example} rows", len(rows), expected_bench_rows(spec))
        for row in rows:
            ratio, log10 = float(row["ratio"]), float(row["log10_ratio"])
            # A ratio past float range is printed as inf (RatioResult); its log stays finite.
            if math.isnan(ratio) or ratio < 0.0 or not math.isfinite(log10):
                errs.append(f"bench {example} row {row}: ratio must be >= 0 or inf, log finite")
    except (KeyError, ValueError) as exc:
        errs.append(f"malformed bench CSV: {exc!r}")
    want = genbench.ratio_table_csv(genbench.run_example(spec))
    if stdout != want:
        errs.append(f"bench {example} CSV differs from in-process ratio_table_csv")
    return errs


@dataclass(frozen=True)
class QuickWorkload:
    """Many short commands: every ``bench`` example, ``dsep``, a small round trip."""

    name: str
    n_cases: int
    metrics: tuple[str, ...]
    replicates = 1  # the small dataset, sampled and scored once per pass

    def setup_code(self, seed: int) -> str:
        return "import bnscore; bnscore.load_alarm()"

    def run_pass(self, runner: Runner, seed: int) -> list[Op]:
        net = str(alarm_file(runner.root))
        ops = [Op(runner.cli("bench", "--example", str(i))) for i in sorted(genbench.EXAMPLES)]
        ops.append(Op(runner.cli("dsep", "--net", net, "--count-marginal")))
        x, y, given = dsep_query(runner.root, seed)
        extra = ["--given", ",".join(given)] if given else []
        ops.append(Op(runner.cli("dsep", "--net", net, "--x", x, "--y", y, *extra)))
        return ops + _sample_and_score(runner, seed, self.n_cases, self.metrics, "small.csv")

    def errors(self, root: Path, seed: int, passes: list[list[Op]]) -> list[list[str]]:
        doc = bnscore.parse_network(alarm_file(root).read_text())
        structure = doc.structure
        n_marginal = len(rocstats.marginally_d_separated_pairs(doc.net))
        x, y, given = dsep_query(root, seed)
        separated = bnscore.d_separated(
            structure, structure.index_of(x), structure.index_of(y),
            [structure.index_of(g) for g in given],
        )
        dsep_out = [
            f"marginally_d_separated_pairs={n_marginal}\n",
            f"d-separated={'true' if separated else 'false'}\n",
        ]
        expected = _sample_and_score_expected(root, seed, self.n_cases, self.metrics)
        n_bench = len(genbench.EXAMPLES)
        out = []
        for ops in passes:
            for example, op in zip(sorted(genbench.EXAMPLES), ops[:n_bench]):
                errs = _exit_errors(op)
                out.append(errs or bench_errors(op.result.stdout, example))
            for op, want in zip(ops[n_bench:n_bench + 2], dsep_out):
                errs = _exit_errors(op)
                if not errs:
                    _expect(errs, " ".join(op.result.args[2:]), op.result.stdout, want)
                out.append(errs)
            out += _sample_and_score_errors(ops[n_bench + 2:], self.n_cases, expected)
        return out

    def outputs(self, passes: list[list[Op]]) -> dict[str, str]:
        ops = passes[0]
        digests = {
            f"bench{i}.csv": _digest(op.result.stdout.encode())
            for i, op in zip(sorted(genbench.EXAMPLES), ops)
        }
        digests["small.csv"] = ops[-1 - len(self.metrics)].evidence or ""
        return digests


#: Why each workload is in the benchmark is recorded in perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        RocWorkload("roc-paper", (5, 10, 20, 40, 80, 160), 20,
                    ("bdeu0.01", "bdeu1", "bdeu4", "k2", "gu")),
        RocWorkload("roc-largen", (10000, 20000), 20, ("k2", "gu")),
        RoundtripWorkload("cli-roundtrip", 100_000, ("k2", "bdeu4")),
        QuickWorkload("cli-quick", 5_000, ("bdeu1",)),
    )
}
