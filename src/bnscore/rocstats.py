"""ROC analysis of arc detection on a known network.

The experiment treats each true arc as a positive instance and a fixed
random selection of marginally d-separated variable pairs as negatives.
Each pair is scored by the posterior probability of the dependent pair
structure; sweeping a threshold over those scores yields one ROC curve per
(metric, dataset), which are then vertically averaged across replicates,
with t-based confidence intervals on the areas.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import fmean, stdev
from typing import Sequence

import numpy as np
from scipy.special import stdtrit

from .genbench import _fmt, forward_sample
from .model import BayesNet, d_separated
from .scoring import DomainError, MetricSpec, _pair_count_table, arc_posterior_from_counts

__all__ = [
    "DegenerateInput",
    "InsufficientNegatives",
    "ScoredPair",
    "RocCurve",
    "AucSummary",
    "PairSets",
    "ExperimentResult",
    "DEFAULT_FPR_GRID",
    "DEFAULT_SIZES",
    "DEFAULT_METRICS",
    "roc_points",
    "auc",
    "mann_whitney_auc",
    "auc_from_pairs",
    "mean_roc",
    "student_t_quantile",
    "t_confidence_interval",
    "enumerate_pair_sets",
    "run_alarm_experiment",
    "auc_summary_csv",
    "mean_roc_csv",
]

#: 47 evenly spaced false-positive rates 0, 1/46, ..., 1 used for
#: vertical averaging of replicate curves (one step per negative pair).
DEFAULT_FPR_GRID = tuple(i / 46.0 for i in range(47))

DEFAULT_SIZES = (5, 10, 20, 40, 80, 160)

DEFAULT_METRICS = (
    MetricSpec.bdeu(0.01),
    MetricSpec.bdeu(1.0),
    MetricSpec.bdeu(4.0),
    MetricSpec.k2(),
    MetricSpec.gu(),
)


class DegenerateInput(ValueError):
    """The statistic needs more, or more varied, inputs than were given."""


class InsufficientNegatives(ValueError):
    """Fewer marginally d-separated pairs exist than negatives requested."""


@dataclass(frozen=True)
class ScoredPair:
    """A labelled, scored pair: label True marks a true-arc positive."""

    x: int
    y: int
    label: bool
    score: float


@dataclass(frozen=True)
class RocCurve:
    """ROC points from (0, 0) to (1, 1), both rates non-decreasing.

    Tied scores are swept together, so ties show up as single diagonal
    segments rather than staircase artefacts.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(f), float(t)) for f, t in self.points)
        object.__setattr__(self, "points", pts)
        # Threshold sweeps start at (0, 0); vertically averaged curves may
        # start higher, but always at fpr 0, and every curve ends at (1, 1).
        if not pts or pts[0][0] != 0.0 or pts[-1] != (1.0, 1.0):
            raise DegenerateInput("curve must run from fpr 0 to (1, 1)")
        for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
            if f1 < f0 or t1 < t0:
                raise DegenerateInput("ROC points must be non-decreasing")


def roc_points(pairs: Sequence[ScoredPair]) -> RocCurve:
    """Sweep a decision threshold down through the scores.

    After each distinct score value the running (fpr, tpr) is emitted, so
    a group of tied scores contributes one segment.
    """
    n_pos = sum(1 for p in pairs if p.label)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInput(
            f"need both labels represented, got {n_pos} positives and {n_neg} negatives"
        )
    if not all(math.isfinite(p.score) for p in pairs):
        raise DegenerateInput("scores must be finite")
    by_score: dict[float, list[bool]] = {}
    for p in pairs:
        by_score.setdefault(float(p.score), []).append(p.label)
    points = [(0.0, 0.0)]
    tp = fp = 0
    for score in sorted(by_score, reverse=True):
        group = by_score[score]
        tp += sum(group)
        fp += len(group) - sum(group)
        points.append((fp / n_neg, tp / n_pos))
    return RocCurve(tuple(points))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve."""
    total = 0.0
    for (f0, t0), (f1, t1) in zip(curve.points, curve.points[1:]):
        total += (f1 - f0) * (t0 + t1) / 2.0
    return total


def mann_whitney_auc(pairs: Sequence[ScoredPair]) -> float:
    """Probability a random positive outscores a random negative, ties 1/2."""
    pos = np.array([p.score for p in pairs if p.label])
    neg = np.array([p.score for p in pairs if not p.label])
    if pos.size == 0 or neg.size == 0:
        raise DegenerateInput("need at least one positive and one negative")
    wins = np.greater.outer(pos, neg).sum() + 0.5 * np.equal.outer(pos, neg).sum()
    return float(wins) / (pos.size * neg.size)


def auc_from_pairs(pairs: Sequence[ScoredPair]) -> tuple[float, RocCurve]:
    """AUC and curve from scored pairs, cross-checked two ways.

    The trapezoidal area must agree with the Mann-Whitney statistic to
    1e-12; a disagreement means the sweep itself is broken.
    """
    curve = roc_points(pairs)
    area = auc(curve)
    rank_area = mann_whitney_auc(pairs)
    if abs(area - rank_area) > 1e-12:
        raise AssertionError(
            f"trapezoid {area!r} and rank statistic {rank_area!r} disagree"
        )
    return area, curve


def mean_roc(
    curves: Sequence[RocCurve], grid: Sequence[float] = DEFAULT_FPR_GRID
) -> RocCurve:
    """Vertical average: at each grid fpr, mean of the curves' best tpr
    reachable at or below that fpr."""
    if not curves:
        raise DegenerateInput("need at least one curve")
    grid = [float(g) for g in grid]
    if grid[0] != 0.0 or grid[-1] != 1.0 or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise DegenerateInput("grid must increase from 0 to 1")
    means = []
    for g in grid:
        total = 0.0
        for curve in curves:
            best = 0.0
            for f, t in curve.points:
                if f <= g + 1e-15:
                    best = t
                else:
                    break
            total += best
        means.append(total / len(curves))
    return RocCurve(tuple(zip(grid, means)))


def student_t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t with df degrees of freedom (scipy's stdtrit)."""
    if df < 1:
        raise DomainError(f"df must be at least 1, got {df}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    return float(stdtrit(df, p))


def t_confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> tuple[float, float, float]:
    """(mean, low, high): a symmetric t interval for the mean.

    Needs at least two values; a zero-spread sample collapses to a
    zero-width interval at the common value.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise DegenerateInput(f"need at least 2 values, got {len(vals)}")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie strictly in (0, 1), got {level}")
    m = fmean(vals)
    s = stdev(vals)
    if s == 0.0:
        return m, m, m
    q = student_t_quantile(0.5 + level / 2.0, len(vals) - 1)
    half = q * s / math.sqrt(len(vals))
    return m, m - half, m + half


@dataclass(frozen=True)
class AucSummary:
    """Mean AUC with a t confidence interval, clipped to [0, 1]."""

    metric: str
    alpha0: float | None
    n: int
    mean_auc: float
    ci_low: float
    ci_high: float
    reps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ci_low", max(0.0, self.ci_low))
        object.__setattr__(self, "ci_high", min(1.0, self.ci_high))
        if not 0.0 <= self.ci_low <= self.mean_auc <= self.ci_high <= 1.0:
            raise DegenerateInput(
                f"inconsistent AUC summary: {self.ci_low}, {self.mean_auc}, "
                f"{self.ci_high}"
            )


@dataclass(frozen=True)
class PairSets:
    """Positive (true arc) and negative (d-separated) evaluation pairs."""

    positives: tuple[tuple[int, int], ...]
    negatives: tuple[tuple[int, int], ...]
    n_candidates: int


def marginally_d_separated_pairs(net: BayesNet) -> tuple[tuple[int, int], ...]:
    """All unordered pairs with no active marginal path (no conditioning)."""
    structure = net.structure
    out = []
    for a in range(structure.n):
        for b in range(a + 1, structure.n):
            if d_separated(structure, a, b, ()):
                out.append((a, b))
    return tuple(out)


def enumerate_pair_sets(net: BayesNet, negatives: int = 46, seed: int = 42) -> PairSets:
    """True arcs as positives; a seeded draw of d-separated pairs as negatives.

    Negatives are sampled without replacement from all marginally
    d-separated unordered pairs, then sorted; by default the draw is the
    same size as the positive set.
    """
    positives = net.structure.arcs()
    candidates = marginally_d_separated_pairs(net)
    if len(candidates) < negatives:
        raise InsufficientNegatives(
            f"requested {negatives} negatives but only {len(candidates)} "
            "marginally d-separated pairs exist"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=negatives, replace=False)
    negs = tuple(sorted(candidates[i] for i in chosen))
    return PairSets(positives, negs, len(candidates))


@dataclass(frozen=True)
class ExperimentResult:
    """Per-(metric, size) AUC summaries and vertically averaged curves."""

    summaries: tuple[AucSummary, ...]
    mean_curves: dict[tuple[str, int], RocCurve]
    pairs: PairSets


def _replicate_curves(
    net: BayesNet,
    n_cases: int,
    seed: int,
    pairs: PairSets,
    metrics: Sequence[MetricSpec],
) -> list[tuple[float, tuple[tuple[float, float], ...]]]:
    """One replicate: sample, score every pair, one (auc, curve) per metric.

    A pair's joint count table is built once and shared across metrics;
    positives are scored in the arc direction, negatives from the
    lower-indexed variable.
    """
    data = forward_sample(net, n_cases, seed)
    tables = {
        (x, y): _pair_count_table(data, x, y)
        for (x, y) in (*pairs.positives, *pairs.negatives)
    }
    out = []
    for metric in metrics:
        scored = [
            ScoredPair(x, y, True, arc_posterior_from_counts(metric, tables[(x, y)]))
            for (x, y) in pairs.positives
        ]
        scored += [
            ScoredPair(x, y, False, arc_posterior_from_counts(metric, tables[(x, y)]))
            for (x, y) in pairs.negatives
        ]
        area, curve = auc_from_pairs(scored)
        out.append((area, curve.points))
    return out


def run_alarm_experiment(
    net: BayesNet,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = 100,
    metrics: Sequence[MetricSpec] = DEFAULT_METRICS,
    seed: int = 42,
    negatives: int = 46,
    grid: Sequence[float] = DEFAULT_FPR_GRID,
    jobs: int = 1,
) -> ExperimentResult:
    """Arc-detection ROC study over replicated forward samples.

    Replicate r draws its dataset with seed ``seed + r``, so every metric
    sees identical data and reruns are bit-for-bit reproducible; ``jobs``
    only spreads replicates across processes without changing results.
    """
    if reps < 2:
        raise DegenerateInput(f"need at least 2 replicates, got {reps}")
    sizes = tuple(int(n) for n in sizes)
    metrics = tuple(metrics)
    pairs = enumerate_pair_sets(net, negatives, seed)

    tasks = [(net, n, seed + rep, pairs, metrics) for n in sizes for rep in range(reps)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_replicate_curves_star, tasks, chunksize=4))
    else:
        results = [_replicate_curves(*task) for task in tasks]

    summaries = []
    mean_curves: dict[tuple[str, int], RocCurve] = {}
    for si, n in enumerate(sizes):
        per_rep = results[si * reps : (si + 1) * reps]
        for mi, metric in enumerate(metrics):
            aucs = [rep[mi][0] for rep in per_rep]
            curves = [RocCurve(rep[mi][1]) for rep in per_rep]
            mean, lo, hi = t_confidence_interval(aucs)
            summaries.append(
                AucSummary(metric.kind, metric.alpha0, n, mean, lo, hi, reps)
            )
            mean_curves[(metric.label, n)] = mean_roc(curves, grid)
    return ExperimentResult(tuple(summaries), mean_curves, pairs)


def _replicate_curves_star(task):
    return _replicate_curves(*task)


def auc_summary_csv(summaries: Sequence[AucSummary]) -> str:
    """CSV: metric,alpha0,n,mean_auc,ci_low,ci_high,reps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "alpha0", "n", "mean_auc", "ci_low", "ci_high", "reps"])
    for s in summaries:
        writer.writerow(
            [s.metric, _fmt(s.alpha0), s.n, _fmt(s.mean_auc), _fmt(s.ci_low),
             _fmt(s.ci_high), s.reps]
        )
    return buf.getvalue()


def mean_roc_csv(mean_curves: dict[tuple[str, int], RocCurve]) -> str:
    """CSV: metric,n,fpr,tpr with one row per grid point, insertion order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "n", "fpr", "tpr"])
    for (label, n), curve in mean_curves.items():
        for f, t in curve.points:
            writer.writerow([label, n, _fmt(f), _fmt(t)])
    return buf.getvalue()
