"""Log-space marginal-likelihood metrics for complete discrete data.

Every score is the log of a Dirichlet-multinomial marginal likelihood

    sum over (i, j) of  lnG(a_ij) - lnG(a_ij + N_ij)
                        + sum over k of lnG(a_ijk + N_ijk) - lnG(a_ijk)

with the prior pseudo-counts a_ijk fixed by the metric: K2 uses a_ijk = 1,
BDeu(alpha0) spreads a total of alpha0 evenly, a_ijk = alpha0 / (q_i r_i).

The global-uniform (GU) metric places a single uniform prior over the joint
distribution instead of per-family priors.  It is defined only for
structures whose skeleton is a union of cliques, where it reduces to a
closed form per connected component:

    lnG(n_c) + sum over cells of lnG(N_cell + 1) - lnG(n_c + N)

with n_c the component's number of joint cells and N the case total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import (
    DagStructure,
    Dataset,
    SchemaMismatch,
    Variable,
    clique_decomposition,
    count_sufficient_stats,
    first_non_adjacent_pair,
    joint_cell_counts,
)

__all__ = [
    "DomainError",
    "LengthMismatch",
    "NotCliqueDecomposable",
    "MetricSpec",
    "RatioResult",
    "log_gamma",
    "log_dirichlet_multinomial",
    "k2_log_score",
    "bdeu_log_score",
    "gu_log_score",
    "log_score",
    "structure_ratio",
    "pair_structures",
    "arc_posterior",
    "arc_posterior_from_counts",
    "mc_marginal_saturated",
    "bdeu_ratio_constant_pair",
    "gu_ratio_constant_pair",
]

_LN10 = math.log(10.0)
# math.exp overflows just above this; larger log ratios map to inf.
_EXP_MAX = 709.0


class DomainError(ValueError):
    """An argument falls outside a function's mathematical domain."""


class LengthMismatch(ValueError):
    """Paired vector arguments differ in length."""


class NotCliqueDecomposable(ValueError):
    """The GU metric needs a skeleton that is a union of cliques."""


@dataclass(frozen=True)
class MetricSpec:
    """A scoring metric: kind in {'k2', 'bdeu', 'gu'}, alpha0 for BDeu only."""

    kind: str
    alpha0: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("k2", "bdeu", "gu"):
            raise DomainError(f"unknown metric kind {self.kind!r}")
        if self.kind == "bdeu":
            if self.alpha0 is None:
                raise DomainError("BDeu requires alpha0")
            if not 0 < self.alpha0 < math.inf:
                raise DomainError(f"alpha0 must be positive and finite, got {self.alpha0}")
        elif self.alpha0 is not None:
            raise DomainError(f"{self.kind} does not take alpha0")

    @classmethod
    def k2(cls) -> "MetricSpec":
        return cls("k2")

    @classmethod
    def bdeu(cls, alpha0: float) -> "MetricSpec":
        return cls("bdeu", float(alpha0))

    @classmethod
    def gu(cls) -> "MetricSpec":
        return cls("gu")

    @property
    def label(self) -> str:
        """Compact name, e.g. 'k2', 'gu', 'bdeu4', 'bdeu0.01'."""
        if self.kind == "bdeu":
            return f"bdeu{self.alpha0:g}"
        return self.kind


@dataclass(frozen=True)
class RatioResult:
    """A score ratio with its exact log; ratio is inf past float range."""

    ratio: float
    log_ratio: float

    @property
    def log10_ratio(self) -> float:
        return self.log_ratio / _LN10


def _safe_exp(log_value: float) -> float:
    return math.exp(log_value) if log_value <= _EXP_MAX else math.inf


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


def log_dirichlet_multinomial(counts, alphas) -> float:
    """Log marginal likelihood of counts under a Dirichlet(alphas) prior.

    Computes lnG(A) - lnG(A + N) + sum_k [lnG(a_k + N_k) - lnG(a_k)] where
    A and N are the respective totals.
    """
    n = np.asarray(counts)
    a = np.asarray(alphas, dtype=float)
    if n.ndim != 1 or a.ndim != 1 or n.size < 2:
        raise LengthMismatch("counts and alphas must be vectors of length >= 2")
    if n.size != a.size:
        raise LengthMismatch(f"{n.size} counts for {a.size} alphas")
    if np.any(n < 0) or not np.issubdtype(n.dtype, np.integer):
        raise DomainError("counts must be non-negative integers")
    if np.any(a <= 0):
        raise DomainError("alphas must be positive")
    total_a = float(a.sum())
    total_n = int(n.sum())
    return float(
        gammaln(total_a)
        - gammaln(total_a + total_n)
        + np.sum(gammaln(a + n) - gammaln(a))
    )


def _family_log_score(stats, alpha_cell) -> float:
    """Sum the family terms with a constant per-cell alpha per variable."""
    total = 0.0
    for table in stats.tables:
        q, r = table.shape
        a = alpha_cell(q, r)
        row_totals = table.sum(axis=1)
        total += float(
            q * gammaln(r * a)
            - np.sum(gammaln(r * a + row_totals))
            + np.sum(gammaln(a + table))
            - table.size * gammaln(a)
        )
    return total


def _bdeu_finite(log_value: float, alpha0: float) -> float:
    """The BDeu log score, unless lnG left float range: it overflows near 1e308
    and is infinite at the subnormal pseudo-counts a tiny alpha0 gives."""
    if not math.isfinite(log_value):
        raise DomainError(f"alpha0={alpha0!r} puts a BDeu log-gamma term out of float range")
    return log_value


def k2_log_score(structure: DagStructure, data: Dataset) -> float:
    """Log K2 score: uniform Dirichlet(1, ..., 1) prior in every family."""
    stats = count_sufficient_stats(structure, data)
    return _family_log_score(stats, lambda q, r: 1.0)


def bdeu_log_score(structure: DagStructure, data: Dataset, alpha0: float) -> float:
    """Log BDeu score with equivalent sample size alpha0 > 0."""
    if not 0 < alpha0 < math.inf:
        raise DomainError(f"alpha0 must be positive and finite, got {alpha0}")
    stats = count_sufficient_stats(structure, data)
    return _bdeu_finite(_family_log_score(stats, lambda q, r: alpha0 / (q * r)), alpha0)


def gu_log_score(structure: DagStructure, data: Dataset) -> float:
    """Log GU score; raises NotCliqueDecomposable off clique unions."""
    if data.variables != structure.variables:
        raise SchemaMismatch(
            "dataset schema does not match structure variables"
        )
    decomp = clique_decomposition(structure)
    if not decomp.is_clique_union:
        pair = first_non_adjacent_pair(structure)
        a, b = (structure.variables[i].name for i in pair)
        raise NotCliqueDecomposable(
            f"skeleton is not a union of cliques: {a!r} and {b!r} are "
            "connected but not adjacent"
        )
    n_total = data.n_cases
    total = 0.0
    for comp in decomp.components:
        cells = joint_cell_counts(comp, data)
        n_c = cells.size
        total += float(
            gammaln(n_c) + np.sum(gammaln(cells + 1)) - gammaln(n_c + n_total)
        )
    return total


def log_score(metric: MetricSpec, structure: DagStructure, data: Dataset) -> float:
    """Dispatch to the metric's log score."""
    if metric.kind == "k2":
        return k2_log_score(structure, data)
    if metric.kind == "bdeu":
        return bdeu_log_score(structure, data, metric.alpha0)
    return gu_log_score(structure, data)


def structure_ratio(
    metric: MetricSpec,
    dependent: DagStructure,
    independent: DagStructure,
    data: Dataset,
) -> RatioResult:
    """Posterior-odds ratio of two structures under a uniform structure prior."""
    log_ratio = log_score(metric, dependent, data) - log_score(
        metric, independent, data
    )
    return RatioResult(_safe_exp(log_ratio), log_ratio)


def pair_structures(vx: Variable, vy: Variable) -> tuple[DagStructure, DagStructure]:
    """The two-variable structures (x -> y, and no arc), in that order."""
    variables = (vx, vy)
    return (
        DagStructure(variables, ((), (0,))),
        DagStructure(variables, ((), ())),
    )


def _posterior_from_logs(log_dep: float, log_indep: float) -> float:
    m = max(log_dep, log_indep)
    wd = math.exp(log_dep - m)
    wi = math.exp(log_indep - m)
    return wd / (wd + wi)


def arc_posterior(metric: MetricSpec, x: int, y: int, data: Dataset) -> float:
    """Posterior probability of x -> y versus no arc, on the projected pair.

    Both structures get prior weight 1/2; the result is
    P(x -> y) / (P(x -> y) + P(no arc)) computed in log space.
    """
    if x == y:
        raise SchemaMismatch("x and y must be distinct variables")
    pair = data.project([x, y])
    dep, indep = pair_structures(*pair.variables)
    return _posterior_from_logs(
        log_score(metric, dep, pair), log_score(metric, indep, pair)
    )


def _pair_log_scores(metric: MetricSpec, counts: np.ndarray) -> tuple[float, float]:
    """Log scores (dependent, independent) from a 2-D pair count table.

    Rows index the parent variable's states, columns the child's.
    """
    counts = np.asarray(counts)
    g, h = counts.shape
    n = int(counts.sum())
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)

    def ddm(vec, a):
        k = vec.size
        return float(
            gammaln(k * a)
            - gammaln(k * a + vec.sum())
            + np.sum(gammaln(a + vec))
            - k * gammaln(a)
        )

    if metric.kind == "k2":
        dep = ddm(row, 1.0) + sum(ddm(counts[j], 1.0) for j in range(g))
        indep = ddm(row, 1.0) + ddm(col, 1.0)
    elif metric.kind == "bdeu":
        a0 = metric.alpha0
        dep = ddm(row, a0 / g) + sum(ddm(counts[j], a0 / (g * h)) for j in range(g))
        dep = _bdeu_finite(dep, a0)
        indep = _bdeu_finite(ddm(row, a0 / g) + ddm(col, a0 / h), a0)
    else:
        dep = float(gammaln(g * h) + np.sum(gammaln(counts + 1)) - gammaln(g * h + n))
        indep = float(
            gammaln(g) + np.sum(gammaln(row + 1)) - gammaln(g + n)
            + gammaln(h) + np.sum(gammaln(col + 1)) - gammaln(h + n)
        )
    return dep, indep


def arc_posterior_from_counts(metric: MetricSpec, counts: np.ndarray) -> float:
    """arc_posterior computed directly from a pair's joint count table."""
    dep, indep = _pair_log_scores(metric, counts)
    return _posterior_from_logs(dep, indep)


def mc_marginal_saturated(
    counts, samples: int, seed: int, _batch: int = 1 << 18
) -> tuple[float, float]:
    """Monte Carlo estimate of the saturated marginal likelihood term.

    Draws parameter vectors uniformly from the simplex (unit-rate
    exponential draws, normalised) and averages prod_k theta_k ** N_k.
    Returns (estimate, standard error).
    """
    n = np.asarray(counts)
    if n.ndim != 1 or n.size < 2:
        raise DomainError("counts must be a vector of length >= 2")
    if np.any(n < 0) or not np.issubdtype(n.dtype, np.integer):
        raise DomainError("counts must be non-negative integers")
    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")

    k = n.size
    active = np.where(n > 0)[0]
    n_active = n[active].astype(float)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining:
        m = min(remaining, _batch)
        draws = rng.exponential(1.0, size=(m, k))
        theta = draws / draws.sum(axis=1, keepdims=True)
        if active.size:
            w = np.exp(np.log(theta[:, active]) @ n_active)
        else:
            w = np.ones(m)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        remaining -= m
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def bdeu_ratio_constant_pair(n_cases: int, alpha0: float) -> RatioResult:
    """BDeu dependent/independent ratio for two binary variables observed
    constant in all n_cases cases, in closed form.

    The ratio is G(a/2)^2 G(a/4 + N) G(a + N) / [G(a/4) G(a) G(a/2 + N)^2]
    with a = alpha0 and N = n_cases; it equals 1 at N = 1 and grows with N.
    """
    if n_cases < 1:
        raise DomainError(f"n_cases must be positive, got {n_cases}")
    if not 0 < alpha0 < math.inf:
        raise DomainError(f"alpha0 must be positive and finite, got {alpha0}")
    a = float(alpha0)
    log_ratio = (
        2.0 * math.lgamma(a / 2.0)
        + math.lgamma(a / 4.0 + n_cases)
        + math.lgamma(a + n_cases)
        - math.lgamma(a / 4.0)
        - math.lgamma(a)
        - 2.0 * math.lgamma(a / 2.0 + n_cases)
    )
    return RatioResult(_safe_exp(log_ratio), log_ratio)


def gu_ratio_constant_pair(n_cases: int) -> RatioResult:
    """GU dependent/independent ratio for two constant binary variables:
    6 (N + 1) / ((N + 2) (N + 3)), which is below 1 for N > 1 and falls
    like 6/N.
    """
    if n_cases < 1:
        raise DomainError(f"n_cases must be positive, got {n_cases}")
    n = n_cases
    ratio = 6.0 * (n + 1) / ((n + 2) * (n + 3))
    return RatioResult(ratio, math.log(ratio))
