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

from .model import (
    DagStructure,
    Dataset,
    SchemaMismatch,
    Variable,
    clique_decomposition,
    count_sufficient_stats,
    joint_cell_counts,
)

__all__ = [
    "DomainError",
    "NotCliqueDecomposable",
    "MetricSpec",
    "RatioResult",
    "log_score",
    "structure_ratio",
    "pair_structures",
    "arc_posterior",
    "arc_posterior_from_counts",
]

_LN10 = math.log(10.0)
# math.exp overflows just above this; larger log ratios map to inf.
_EXP_MAX = 709.0


class DomainError(ValueError):
    """An argument falls outside a function's mathematical domain."""


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


# lnG(x) for x >= 0 by the Cephes ``lgam`` algorithm (S. L. Moshier), the
# one scipy.special.gammaln runs, step for step so every result is the same
# float.  Below 13 a recurrence moves the argument into [2, 3), where
# lnG(2 + t) = t B(t) / C(t); above, Stirling's series with the A polynomial
# in 1/x^2 below 1000, its first three terms up to 1e8, and none beyond.
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4,
    7.93650340457716943945e-4, -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4,
    -3.31612992738871184744e5, -1.16237097492762307383e6,
    -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
    -2.20528590553854454839e5, -1.13933444367982507207e6,
    -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LN_SQRT_2PI = 0.91893853320467274178
# (x - 1/2) ln x overflows just above this.
_LGAM_MAX = 2.556348e305
# Arguments remembered by the memo before it starts afresh.
_LGAM_MEMO_SIZE = 1 << 14


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """Horner's rule, highest power first; its first step 0 x + c0 is exact."""
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


def _lgam(x: float) -> float:
    """lnG(x) for x >= 0, bit for bit scipy.special.gammaln; inf at 0, at
    subnormal x whose reciprocal overflows, and above _LGAM_MAX."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    return q + _polevl(p, _LGAM_A) / x


class _LgamMemo(dict):
    """lnG by argument: a replicate's pseudo-counts and counts repeat, so
    most terms are looked up, not computed."""

    def __missing__(self, x: float) -> float:
        if len(self) >= _LGAM_MEMO_SIZE:
            self.clear()
        value = self[x] = _lgam(float(x))
        return value


_LGAM = _LgamMemo()


def _dm_terms(rows: list[list[int]], a: float) -> list[float]:
    """The Dirichlet-multinomial kernel: the log-gamma terms of a (q, r)
    count table, given as q rows, with pseudo-count a in every cell.

    Returns the cell terms lnG(a + N_jk) - lnG(a), then the row terms
    lnG(r a) - lnG(r a + N_j); their fsum is the log marginal likelihood.
    Empty cells and rows give exactly 0.
    """
    q, row_a = len(rows), len(rows[0]) * a
    row_args = [row_a + sum(row) for row in rows]
    cell_args = [a + n for row in rows for n in row]
    lg = list(map(_LGAM.__getitem__, [a, row_a] + row_args + cell_args))
    # lnG is infinite at subnormal pseudo-counts and overflows near 1e308;
    # lnG(a) and lnG(r a + N_j) hold its smallest and largest arguments.
    if not all(map(math.isfinite, lg[: 2 + q])):
        raise DomainError(
            "a Dirichlet pseudo-count (alpha0 for BDeu) puts a log-gamma term "
            "out of float range"
        )
    lg_a, lg_row_a = lg[0], lg[1]
    cells = [x - lg_a for x in lg[2 + q :]]
    return cells + [lg_row_a - x for x in lg[2 : 2 + q]]


def _metric_terms(metric: MetricSpec, tables) -> list[float]:
    """Kernel terms of each (q, r) table at the metric's pseudo-count: 1 for
    K2 and GU, alpha0 / (q r) for BDeu."""
    terms = []
    for rows in tables:
        r = len(rows[0])
        a = metric.alpha0 / (len(rows) * r) if metric.kind == "bdeu" else 1.0
        terms += _dm_terms(rows, a)
    return terms


def _score_tables(metric: MetricSpec, structure: DagStructure, data: Dataset) -> list:
    """The tables a metric scores: every family's (q, r) count table for K2
    and BDeu, every skeleton component's joint cells as one row for GU."""
    if metric.kind != "gu":
        return [t.tolist() for t in count_sufficient_stats(structure, data)]
    if data.variables != structure.variables:
        raise SchemaMismatch(
            "dataset schema does not match structure variables"
        )
    decomp = clique_decomposition(structure)
    if not decomp.is_clique_union:
        a, b = (structure.variables[i].name for i in decomp.non_adjacent_pair)
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
    marginals.  Raises DomainError unless counts is a non-empty 2-D table of
    non-negative integers.
    """
    counts = np.asarray(counts)
    if not (counts.ndim == 2 and counts.size and np.issubdtype(counts.dtype, np.integer)):
        raise DomainError("a pair count table must be a non-empty 2-D integer array")
    table = counts.tolist()
    if min(map(min, table)) < 0:
        raise DomainError("counts must be non-negative")
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
