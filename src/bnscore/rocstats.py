"""ROC analysis of arc detection on a known network.

The experiment treats each true arc as a positive instance and a fixed
random selection of marginally d-separated variable pairs as negatives.
Each pair is scored by the posterior probability of the dependent pair
structure; sweeping a threshold over those scores yields one ROC curve per
(metric, dataset), which are then vertically averaged across replicates,
with t-based confidence intervals on the areas.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .genbench import _as_int, forward_sample
from .model import BayesNet, _checked_component, _pair_count_tables
from .netio import _csv_text, _fmt
from .scoring import MetricSpec, _arc_posteriors

__all__ = [
    "DegenerateInput",
    "ScoredPair",
    "RocCurve",
    "AucSummary",
    "PairSets",
    "ExperimentResult",
    "DEFAULT_FPR_GRID",
    "DEFAULT_SIZES",
    "DEFAULT_METRICS",
    "auc_from_pairs",
    "mean_roc",
    "t_confidence_interval",
    "marginally_d_separated_pairs",
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


@dataclass(frozen=True)
class ScoredPair:
    """A labelled, scored pair: label True marks a true-arc positive."""

    x: int
    y: int
    label: bool
    score: float


@dataclass(frozen=True)
class RocCurve:
    """ROC points from (0, 0) to (1, 1), both rates non-decreasing in [0, 1].

    Tied scores are swept together, so ties show up as single diagonal
    segments rather than staircase artefacts.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(f), float(t)) for f, t in self.points)
        object.__setattr__(self, "points", pts)
        _check_rates(*np.array(pts).reshape(-1, 2).T)


def _check_rates(fpr: np.ndarray, tpr: np.ndarray) -> None:
    """Raise DegenerateInput unless fpr runs 0 to 1, tpr to 1, both non-decreasing in [0, 1]."""
    # Threshold sweeps start at (0, 0); vertically averaged curves may
    # start higher, but always at fpr 0, and every curve ends at (1, 1).
    if not fpr.size or fpr[0] != 0.0 or fpr[-1] != 1.0 or tpr[-1] != 1.0:
        raise DegenerateInput("curve must run from fpr 0 to (1, 1)")
    # Each comparison is False for a NaN, so a NaN rate fails too.
    if not (tpr[0] >= 0.0 and (np.diff(fpr) >= 0.0).all() and (np.diff(tpr) >= 0.0).all()):
        raise DegenerateInput("ROC points must be non-decreasing rates in [0, 1]")


def _sweep(labels: np.ndarray, scores: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Area, fpr and tpr from bool labels (True marks a positive) and scores.

    A decision threshold sweeps down through the scores: after each group
    of tied scores in one stable descending sort, the running (fpr, tpr)
    is emitted (Fawcett 2006, Algorithm 2). The trapezoidal area must agree
    with the Mann-Whitney statistic, the probability a random positive
    outscores a random negative with ties counting 1/2, to 1e-12; a
    disagreement means the sweep itself is broken.
    """
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInput(
            f"need both labels represented, got {n_pos} positives and {n_neg} negatives"
        )
    if not np.isfinite(scores).all():
        raise DegenerateInput("scores must be finite")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(labels[order])[ends]
    fpr = np.append(0.0, (ends + 1 - tp) / n_neg)
    tpr = np.append(0.0, tp / n_pos)
    # add.accumulate adds the trapezoids in order, as a loop over the
    # points does; np.sum's pairwise order would move digits.
    area = float(np.add.accumulate(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])
    pos, neg = scores[labels], scores[~labels]
    wins = np.greater.outer(pos, neg).sum() + 0.5 * np.equal.outer(pos, neg).sum()
    rank_area = float(wins) / (n_pos * n_neg)
    if abs(area - rank_area) > 1e-12:
        raise AssertionError(
            f"trapezoid {area!r} and rank statistic {rank_area!r} disagree"
        )
    _check_rates(fpr, tpr)
    return area, fpr, tpr


def auc_from_pairs(pairs: Sequence[ScoredPair]) -> tuple[float, RocCurve]:
    """AUC and curve from scored pairs, cross-checked two ways (see _sweep)."""
    labels = np.array([p.label for p in pairs], dtype=bool)
    scores = np.array([p.score for p in pairs], dtype=float)
    area, fpr, tpr = _sweep(labels, scores)
    return area, RocCurve(tuple(zip(fpr.tolist(), tpr.tolist())))


def _grid_row(fpr: np.ndarray, tpr: np.ndarray) -> np.ndarray:
    """The best tpr reachable at or below each fpr of DEFAULT_FPR_GRID."""
    return tpr[np.searchsorted(fpr, np.add(DEFAULT_FPR_GRID, 1e-15), side="right") - 1]


def _mean_curve(rows: np.ndarray) -> RocCurve:
    """Vertical average of grid rows. Axis 0 of a C-ordered array adds one row
    at a time, in order, as a loop does; a pairwise sum would move CSV digits."""
    return RocCurve(tuple(zip(DEFAULT_FPR_GRID, (rows.sum(axis=0) / len(rows)).tolist())))


def mean_roc(curves: Sequence[RocCurve]) -> RocCurve:
    """Vertical average: per DEFAULT_FPR_GRID fpr, the mean best tpr reachable at or below it."""
    if not curves:
        raise DegenerateInput("need at least one curve")
    return _mean_curve(np.array([_grid_row(*np.array(c.points).T) for c in curves]))


def _t_quantile(df: int) -> float:
    """The 0.975 quantile of Student's t with df >= 1 degrees of freedom.

    Newton's method on the upper tail ½·I_x(a, ½), a = df/2, x = df/(df + t²),
    y = 1 - x, from Hill's expansion about the normal quantile (1970, ACM
    Algorithm 396; ha to hd are his a to d). Hill uses it from df 4 on; below
    that Newton takes a few more steps. The regularized incomplete beta is
    x^a·y^½·r/B(a, ½), where r is the even part of its continued fraction as
    TOMS 708's bfrac writes it (DiDonato & Morris 1992), whose terms do not
    cancel as x nears 1, summed by Lentz's method (Numerical Recipes §6.4).
    """
    a, tail, z = df / 2, 0.025, -1.9599639845400545  # z: the normal 0.025 quantile
    ha, hb = 1 / (df - 0.5), 48 * (df - 0.5) ** 2
    hc = ((20700 * ha / hb - 98) * ha - 16) * ha + 96.36
    hd = ((94.5 / (hb + hc) - 3) / hb + 1) * math.sqrt(ha * math.pi / 2) * df
    hc += 0.3 * (df - 4.5) * (z + 0.6) if df < 5 else 0.0
    hc += (((0.05 * hd * z - 5) * z - 7) * z - 2) * z + hb
    y = (((((0.4 * z * z + 6.3) * z * z + 36) * z * z + 94.5) / hc - z * z - 3) / hb + 1) * z
    t = math.sqrt(df * math.expm1(ha * y * y))
    if a < 30:  # B(m + ½, ½) = π·w and B(m, ½) = 1/(m·w), w = C(2m, m)/4^m rounded once
        w = math.comb(df - df % 2, df // 2) / 2 ** (df - df % 2)
        log_beta = math.log(math.pi * w if df % 2 else 2 / (df * w))
    else:  # ln Γ(a + ½) - ln Γ(a) from Stirling's series, term by term
        log_beta = 0.5 * math.log(math.pi / a) - (a * math.log1p(0.5 / a) - 0.5) - sum(
            c * ((a + 0.5) ** (1 - 2 * k) - a ** (1 - 2 * k))
            for k, c in enumerate((1 / 12, -1 / 360, 1 / 1260, -1 / 1680), 1))
    for _ in range(20):
        t2 = t * t
        x, y = df / (df + t2), t2 / (df + t2)
        c, c1 = 0.5 + (a + 0.5) * y, 1 + 1 / a
        p, s, lentz_d = 1.0, a + 1, 0.0
        r_inverse = lentz_c = c / c1
        for k in range(1, 1000):
            w = k * (0.5 - k) * x
            alpha = p * (p + 0.5 / a) * (a / s) ** 2 * w * x
            beta = k + w / s + (1 + k / a) / (c1 + 2 * k / a) * (c + k * (y + 1))
            p, s = 1 + k / a, s + 2
            lentz_d = 1 / (beta + alpha * lentz_d)
            lentz_c = beta + alpha / lentz_c
            r_inverse *= lentz_c * lentz_d
            if abs(lentz_c * lentz_d - 1) < 3e-16:
                break
        t_density = math.exp(0.5 * math.log(y) - a * math.log1p(t2 / df) - log_beta)  # x^a·y^½/B
        step = t * (0.5 / r_inverse - tail / t_density)
        t += step
        if abs(step) < 1e-9 * t:  # Newton squares the error: what is left is below rounding
            return t
    raise AssertionError(f"Newton's method did not settle on the t quantile for df {df}")


def t_confidence_interval(values: Sequence[float]) -> tuple[float, float, float]:
    """(mean, low, high): a symmetric 95% t interval for the mean.

    Needs at least two finite values and an interval within float range; a
    zero-spread sample collapses to a zero-width interval at the common value.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise DegenerateInput(f"need at least 2 values, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise DegenerateInput("values must be finite")
    # Imported here: only roc's aggregation needs them, not import bnscore.
    from statistics import fmean, stdev

    try:
        m, s = fmean(vals), stdev(vals)
    except OverflowError:  # fsum's partial sums left float range
        m = s = math.inf
    if s == 0.0:
        return m, m, m
    half = _t_quantile(len(vals) - 1) * s / math.sqrt(len(vals))
    if not math.isfinite(m - half) or not math.isfinite(m + half):
        raise DegenerateInput("the 95% interval overflows float range")
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
    """All unordered pairs with no active marginal path (no conditioning).

    With nothing observed an active trail has no collider, so it is a chain
    or a fork through a common ancestor: a pair is separated exactly when
    its ancestor sets, each variable its own ancestor, are disjoint.
    """
    structure = net.structure
    ancestors = [0] * structure.n  # bitmask over variable indices
    for v in structure.topological_order():
        for p in structure.parents[v]:
            ancestors[v] |= ancestors[p]
        ancestors[v] |= 1 << v
    return tuple(
        (a, b)
        for a in range(structure.n)
        for b in range(a + 1, structure.n)
        if not ancestors[a] & ancestors[b]
    )


def enumerate_pair_sets(net: BayesNet, negatives: int = 46, seed: int = 42) -> PairSets:
    """True arcs as positives; a seeded draw of d-separated pairs as negatives.

    Negatives are sampled without replacement from all marginally
    d-separated unordered pairs, then sorted. The default of 46 is ALARM's
    arc count, a constant rather than a size read from ``net``.
    """
    checked = _as_int(negatives), _as_int(seed)
    if None in checked:
        raise DegenerateInput(
            f"negatives and seed must be integers, got {negatives!r} and {seed!r}"
        )
    negatives, seed = checked
    if negatives < 0 or seed < 0:
        raise DegenerateInput(
            f"negatives and seed must be non-negative, got {negatives} and {seed}"
        )
    positives = net.structure.arcs()
    candidates = marginally_d_separated_pairs(net)
    if len(candidates) < negatives:
        raise DegenerateInput(
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
) -> list[tuple[float, np.ndarray]]:
    """One replicate: sample, count every pair's table, then score all pairs
    by every metric in one kernel call, one (auc, grid row) per metric.

    Positives are scored in the arc direction, negatives from the
    lower-indexed variable.
    """
    data = forward_sample(net, n_cases, seed)
    keys = [*pairs.positives, *pairs.negatives]
    labels = np.arange(len(keys)) < len(pairs.positives)
    groups = _pair_count_tables(data, keys)
    sweeps = (_sweep(labels, np.array(post)) for post in _arc_posteriors(metrics, groups))
    return [(area, _grid_row(fpr, tpr)) for area, fpr, tpr in sweeps]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, so a taskset or cpuset pin is honoured, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_alarm_experiment(
    net: BayesNet,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = 100,
    metrics: Sequence[MetricSpec] = DEFAULT_METRICS,
    seed: int = 42,
    jobs: int = 1,
) -> ExperimentResult:
    """Arc-detection ROC study over replicated forward samples.

    Replicate r draws its dataset with seed ``seed + r``, so every metric
    sees identical data and reruns are bit-for-bit reproducible; ``jobs``
    only spreads replicates across processes without changing results.
    The pool starts every worker at once, so it never gets more workers
    than there are tasks or CPUs the process may run on. Results are keyed
    by metric label and size, so a repeated label or size is rejected.
    """
    counts = _as_int(reps), _as_int(seed), _as_int(jobs)
    if None in counts:
        raise DegenerateInput(
            f"reps, seed and jobs must be integers, got {reps!r}, {seed!r} and {jobs!r}"
        )
    reps, seed, jobs = counts
    if reps < 2:
        raise DegenerateInput(f"need at least 2 replicates, got {reps}")
    checked = []
    for n in sizes:
        size = _as_int(n)
        if size is None:
            raise DegenerateInput(f"size {n!r} is not an integer")
        if size < 0:
            raise DegenerateInput(f"size {size} is negative")
        checked.append(size)
    sizes = tuple(checked)
    metrics = tuple(metrics)
    for kind, keys in (("size", sizes), ("metric", tuple(m.label for m in metrics))):
        repeated = [k for k in keys if keys.count(k) > 1]
        if repeated:
            raise DegenerateInput(f"{kind} {repeated[0]!r} is given more than once")
    pairs = enumerate_pair_sets(net, 46, seed)
    for pair in (*pairs.positives, *pairs.negatives):
        _checked_component(pair, net.structure.variables)

    tasks = [(net, n, seed + rep, pairs, metrics) for n in sizes for rep in range(reps)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        # Imported here: only a parallel roc needs the pool, not import bnscore.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_curves, *zip(*tasks), chunksize=4))
    else:
        results = [_replicate_curves(*task) for task in tasks]

    summaries = []
    mean_curves: dict[tuple[str, int], RocCurve] = {}
    for si, n in enumerate(sizes):
        per_rep = results[si * reps : (si + 1) * reps]
        for mi, metric in enumerate(metrics):
            mean, lo, hi = t_confidence_interval([rep[mi][0] for rep in per_rep])
            summaries.append(AucSummary(metric.kind, metric.alpha0, n, mean, lo, hi, reps))
            mean_curves[(metric.label, n)] = _mean_curve(np.array([rep[mi][1] for rep in per_rep]))
    return ExperimentResult(tuple(summaries), mean_curves, pairs)


def auc_summary_csv(summaries: Sequence[AucSummary]) -> str:
    """CSV: metric,alpha0,n,mean_auc,ci_low,ci_high,reps."""
    return _csv_text(
        ["metric", "alpha0", "n", "mean_auc", "ci_low", "ci_high", "reps"],
        ([s.metric, _fmt(s.alpha0), s.n, _fmt(s.mean_auc), _fmt(s.ci_low), _fmt(s.ci_high),
          s.reps] for s in summaries),
    )


def mean_roc_csv(mean_curves: dict[tuple[str, int], RocCurve]) -> str:
    """CSV: metric,n,fpr,tpr with one row per grid point, insertion order."""
    return _csv_text(
        ["metric", "n", "fpr", "tpr"],
        ([label, n, _fmt(f), _fmt(t)] for (label, n), curve in mean_curves.items()
         for f, t in curve.points),
    )
