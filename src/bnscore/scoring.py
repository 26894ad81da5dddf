"""Log-space marginal-likelihood metrics for complete discrete data.

Every score is a Dirichlet-multinomial log marginal likelihood, computed
by one kernel.  For a (q, r) count table N_jk and pseudo-count a it gives

    lnG(a + N_jk) - lnG(a)       for every cell,
    lnG(r a) - lnG(r a + N_j)    for every row,

and the score is their exactly rounded sum (math.fsum).  K2 and
BDeu(alpha0) score every family's (parent configuration, state) table,
with a = 1 and a = alpha0 / (q r) respectively.  The global-uniform (GU) metric puts
one uniform prior on the joint distribution; it is defined only when the
skeleton is a union of cliques, and scores each component's joint cells
as one row with a = 1.

Empty cells and rows add exactly 0 and fsum ignores term order, so tables
equal up to a permutation of rows or columns score the same float, and
terms shared by two structures cancel exactly in their ratio.  Exact ties
between pairs therefore stay ties in the ROC sweep.
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


def _dm_terms(rows: list[list[int]], alphas: list[float]) -> list[float]:
    """The Dirichlet-multinomial kernel: the log-gamma terms of a (q, r)
    count table, given as q rows, whose columns have pseudo-counts alphas.

    Returns the cell terms lnG(a_k + N_jk) - lnG(a_k), then the row terms
    lnG(A) - lnG(A + N_j) with A the sum of the alphas; their fsum is the
    log marginal likelihood.  Empty cells and rows give exactly 0.
    """
    r, q = len(alphas), len(rows)
    total_a = math.fsum(alphas)
    row_args = [total_a + sum(row) for row in rows]
    cell_args = [a + n for row in rows for a, n in zip(alphas, row)]
    lg = gammaln(alphas + [total_a] + row_args + cell_args).tolist()
    # lnG is infinite at subnormal pseudo-counts and overflows near 1e308;
    # lnG(a_k) and lnG(A + N_j) hold its smallest and largest arguments.
    if not all(map(math.isfinite, lg[: r + 1 + q])):
        raise DomainError(
            "a Dirichlet pseudo-count (alpha0 for BDeu) puts a log-gamma term "
            "out of float range"
        )
    lg_total = lg[r]
    cells = [x - la for la, x in zip(lg[:r] * q, lg[r + 1 + q :])]
    return cells + [lg_total - x for x in lg[r + 1 : r + 1 + q]]


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
    return math.fsum(_dm_terms([n.tolist()], a.tolist()))


def _metric_terms(metric: MetricSpec, tables) -> list[float]:
    """Kernel terms of each (q, r) table at the metric's pseudo-count: 1 for
    K2 and GU, alpha0 / (q r) for BDeu."""
    terms = []
    for rows in tables:
        r = len(rows[0])
        a = metric.alpha0 / (len(rows) * r) if metric.kind == "bdeu" else 1.0
        terms += _dm_terms(rows, [a] * r)
    return terms


def _score_tables(metric: MetricSpec, structure: DagStructure, data: Dataset) -> list:
    """The tables a metric scores: every family's (q, r) count table for K2
    and BDeu, every skeleton component's joint cells as one row for GU."""
    if metric.kind != "gu":
        return [t.tolist() for t in count_sufficient_stats(structure, data).tables]
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
    return [[joint_cell_counts(comp, data).tolist()] for comp in decomp.components]


def _fsum_ratio(dep_terms: list[float], indep_terms: list[float]) -> float:
    """One exactly rounded sum of the dependent minus the independent terms."""
    return math.fsum(dep_terms + [-t for t in indep_terms])


def log_score(metric: MetricSpec, structure: DagStructure, data: Dataset) -> float:
    """Log marginal likelihood of the data given the structure under the metric."""
    return math.fsum(_metric_terms(metric, _score_tables(metric, structure, data)))


def k2_log_score(structure: DagStructure, data: Dataset) -> float:
    """Log K2 score: uniform Dirichlet(1, ..., 1) prior in every family."""
    return log_score(MetricSpec.k2(), structure, data)


def bdeu_log_score(structure: DagStructure, data: Dataset, alpha0: float) -> float:
    """Log BDeu score with equivalent sample size alpha0 > 0."""
    return log_score(MetricSpec.bdeu(alpha0), structure, data)


def gu_log_score(structure: DagStructure, data: Dataset) -> float:
    """Log GU score; raises NotCliqueDecomposable off clique unions."""
    return log_score(MetricSpec.gu(), structure, data)


def structure_ratio(
    metric: MetricSpec,
    dependent: DagStructure,
    independent: DagStructure,
    data: Dataset,
) -> RatioResult:
    """Posterior-odds ratio of two structures under a uniform structure prior."""
    log_ratio = _fsum_ratio(
        _metric_terms(metric, _score_tables(metric, dependent, data)),
        _metric_terms(metric, _score_tables(metric, independent, data)),
    )
    return RatioResult(_safe_exp(log_ratio), log_ratio)


def pair_structures(vx: Variable, vy: Variable) -> tuple[DagStructure, DagStructure]:
    """The two-variable structures (x -> y, and no arc), in that order."""
    variables = (vx, vy)
    return (
        DagStructure(variables, ((), (0,))),
        DagStructure(variables, ((), ())),
    )


def _pair_count_table(data: Dataset, x: int, y: int) -> np.ndarray:
    """Joint counts of variables x and y: rows index x's states, columns y's."""
    return joint_cell_counts((x, y), data).reshape(
        data.variables[x].arity, data.variables[y].arity
    )


def _pair_log_ratio(metric: MetricSpec, counts: np.ndarray) -> float:
    """Log posterior odds of x -> y against no arc, from the pair's count table.

    K2 and BDeu give x the same family in both structures, so it cancels and
    only y's family is compared; GU compares the joint cells with both
    marginals.
    """
    table = np.asarray(counts).tolist()
    y_table = [list(map(sum, zip(*table)))]
    if metric.kind == "gu":
        dep = [[[n for row in table for n in row]]]
        indep = [[list(map(sum, table))], y_table]
    else:
        dep, indep = [table], [y_table]
    return _fsum_ratio(_metric_terms(metric, dep), _metric_terms(metric, indep))


def arc_posterior_from_counts(metric: MetricSpec, counts: np.ndarray) -> float:
    """Posterior probability of x -> y versus no arc from a pair's joint count
    table (rows index x's states), both structures with prior weight 1/2."""
    return 1.0 / (1.0 + _safe_exp(-_pair_log_ratio(metric, counts)))


def arc_posterior(metric: MetricSpec, x: int, y: int, data: Dataset) -> float:
    """Posterior probability of x -> y versus no arc, on the projected pair;
    raises SchemaMismatch unless x and y are distinct variables of data."""
    return arc_posterior_from_counts(metric, _pair_count_table(data, x, y))


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
    log_ratio = math.fsum((
        2.0 * math.lgamma(a / 2.0),
        math.lgamma(a / 4.0 + n_cases),
        math.lgamma(a + n_cases),
        -math.lgamma(a / 4.0),
        -math.lgamma(a),
        -2.0 * math.lgamma(a / 2.0 + n_cases),
    ))
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
