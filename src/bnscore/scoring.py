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
from functools import lru_cache
from typing import Sequence

import numpy as np

from .model import (
    DagStructure,
    Dataset,
    Variable,
    _check_schema,
    count_sufficient_stats,
    joint_cell_counts,
)

__all__ = [
    "DomainError",
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

    @classmethod
    def parse(cls, token: str) -> "MetricSpec":
        """The metric a token names: 'k2', 'gu', or 'bdeu' followed by alpha0
        as float() reads it, e.g. 'bdeu4' or 'bdeu4.0'; parse(m.label) == m."""
        if token in ("k2", "gu"):
            return cls(token)
        if token.startswith("bdeu"):
            try:
                return cls.bdeu(float(token[4:]))
            except ValueError as exc:
                raise DomainError(f"bad metric token {token!r}: {exc}") from None
        raise DomainError(f"bad metric token {token!r}; expected k2, gu, or bdeu<alpha0>")

    @property
    def label(self) -> str:
        """The name parse reads back: 'k2', 'gu', or 'bdeu' and repr(alpha0)
        less a trailing '.0', e.g. 'bdeu4', 'bdeu0.01', 'bdeu1e-07'."""
        if self.kind == "bdeu":
            return "bdeu" + repr(self.alpha0).removesuffix(".0")
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
# one behind the ``gammaln`` that tests/test_scoring.py compares it with, step
# for step so every result is the same float.  Below 13 a recurrence moves the
# argument into [2, 3), where lnG(2 + t) = t B(t) / C(t); above, Stirling's
# series with the A polynomial in 1/x^2 below 1000, its first three terms up
# to 1e8, and none beyond.
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
# Arguments the memo remembers, the least recently used dropped first.
_LGAM_MEMO_SIZE = 1 << 14


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """Horner's rule, highest power first; its first step 0 x + c0 is exact."""
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


def _lgam(x: float) -> float:
    """lnG(x) for x >= 0, bit for bit the Cephes lgam; inf at 0, at
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


# lnG by argument: a replicate's pseudo-counts and counts repeat, so most
# terms are looked up, not computed.
_LGAM = lru_cache(maxsize=_LGAM_MEMO_SIZE)(_lgam)


def _dm_sums(
    blocks: Sequence[tuple[MetricSpec, Sequence[tuple[float, np.ndarray]]]]
) -> list[list[float]]:
    """The Dirichlet-multinomial kernel, for blocks of signed count tables.

    A block is a metric and a list of (sign, counts) entries, each counts
    holding k stacked (q, r) tables, with one k per block.  Table i of an
    entry has cell terms lnG(a + N_jk) - lnG(a) and row terms
    lnG(r a) - lnG(r a + N_j), at the block metric's pseudo-count a: 1 for
    K2 and GU, alpha0 / (q r) for BDeu; their sum is the table's log
    marginal likelihood.  For each block this returns, for i < k, one
    math.fsum of the terms of every entry's table i times its sign.  Empty
    cells and rows add exactly 0.  Each distinct lnG argument, across all
    blocks, is looked up once.
    """
    parts = []
    for metric, entries in blocks:
        # Column c of a block holds the count n and offset b of one term,
        # whose value is sign_c (lnG(b + n) - lnG(b)); a row term's sign is
        # flipped, which negates the difference exactly.
        counts, offsets, signs = [], [], []
        for sign, tables in entries:
            k, q, r = tables.shape
            a = metric.alpha0 / (q * r) if metric.kind == "bdeu" else 1.0
            counts += [tables.reshape(k, q * r), np.add.reduce(tables, 2)]
            offsets += [a] * (q * r) + [r * a] * q
            signs += [sign] * (q * r) + [-sign] * q
        parts.append((np.concatenate(counts, axis=1), np.array(offsets), np.array(signs)))
    distinct, where = np.unique(
        np.concatenate([x for n, b, _ in parts for x in ((b + n).ravel(), b)]),
        return_inverse=True,
    )
    lg = np.array(list(map(_LGAM, distinct.tolist())))
    # lnG is infinite at subnormal pseudo-counts and overflows near 1e308.
    if not np.isfinite(lg).all():
        raise DomainError(
            "a Dirichlet pseudo-count (alpha0 for BDeu) puts a log-gamma term "
            "out of float range"
        )
    lg = lg[where]
    sums, start = [], 0
    for n, b, signs in parts:
        stop = start + n.size
        terms = signs * (lg[start:stop].reshape(n.shape) - lg[stop : stop + b.size])
        sums.append(list(map(math.fsum, terms.tolist())))
        start = stop + b.size
    return sums


def _cliques(structure: DagStructure) -> list[tuple[int, ...]]:
    """The skeleton's connected components, sorted by smallest member with
    members ascending.  Raises DomainError unless each is a
    clique, naming the first same-component pair (a, b), a < b, that no
    edge joins: components in order, then a, then b."""
    nbrs = [set(structure.parents[v]).union(structure.children(v)) for v in range(structure.n)]
    seen: set[int] = set()
    components = []
    for start in range(structure.n):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            for w in nbrs[frontier.pop()] - comp:
                comp.add(w)
                frontier.append(w)
        seen |= comp
        components.append(tuple(sorted(comp)))
    for comp in components:
        for i, a in enumerate(comp):
            for b in comp[i + 1:]:
                if b not in nbrs[a]:
                    x, y = structure.variables[a].name, structure.variables[b].name
                    raise DomainError(
                        f"skeleton is not a union of cliques: {x!r} and {y!r} are "
                        "connected but not adjacent"
                    )
    return components


def _structure_tables(metric: MetricSpec, structure: DagStructure, data: Dataset) -> list:
    """The tables a metric scores, each as a stack of one: every family's
    (q, r) count table for K2 and BDeu, every skeleton component's joint
    cells as one row for GU."""
    if metric.kind != "gu":
        return [t[None] for t in count_sufficient_stats(structure, data)]
    _check_schema(structure, data)
    return [joint_cell_counts(comp, data).reshape(1, 1, -1) for comp in _cliques(structure)]


def log_score(metric: MetricSpec, structure: DagStructure, data: Dataset) -> float:
    """Log marginal likelihood of the data given the structure under the metric."""
    tables = _structure_tables(metric, structure, data)
    return _dm_sums([(metric, [(1.0, t) for t in tables])])[0][0]


def structure_ratio(
    metric: MetricSpec,
    dependent: DagStructure,
    independent: DagStructure,
    data: Dataset,
) -> RatioResult:
    """Posterior-odds ratio of two structures under a uniform structure prior."""
    block = [(1.0, t) for t in _structure_tables(metric, dependent, data)]
    block += [(-1.0, t) for t in _structure_tables(metric, independent, data)]
    log_ratio = _dm_sums([(metric, block)])[0][0]
    return RatioResult(_safe_exp(log_ratio), log_ratio)


def pair_structures(vx: Variable, vy: Variable) -> tuple[DagStructure, DagStructure]:
    """The two-variable structures (x -> y, and no arc), in that order."""
    variables = (vx, vy)
    return (
        DagStructure(variables, ((), (0,))),
        DagStructure(variables, ((), ())),
    )


def _pair_log_ratios(
    metrics: Sequence[MetricSpec], groups: Sequence[tuple[Sequence[int], np.ndarray]]
) -> list[list[float]]:
    """Log posterior odds of x -> y against no arc for every pair of
    _pair_count_tables groups, one list in pair order per metric, from one
    kernel call: groups are (positions, k stacked (rx, ry) count tables
    whose rows index x's states).

    K2 and BDeu give x the same family in both structures, so it cancels and
    only y's family is compared; GU compares the joint cells with both
    marginals.
    """
    entries = []  # per group: (K2 and BDeu entries, GU entries)
    for _, tables in groups:
        k, rx, ry = tables.shape
        y_tables = (-1.0, np.add.reduce(tables, 1)[:, None])
        x_tables = (-1.0, np.add.reduce(tables, 2)[:, None])
        entries.append(
            ([(1.0, tables), y_tables], [(1.0, tables.reshape(k, 1, rx * ry)), x_tables, y_tables])
        )
    # Blocks run metric by metric, each metric's in group order.
    sums = iter(_dm_sums([(m, e[m.kind == "gu"]) for m in metrics for e in entries]))
    where = np.argsort([i for positions, _ in groups for i in positions])
    return [np.array([lr for _ in groups for lr in next(sums)])[where].tolist() for _ in metrics]


def _arc_posteriors(
    metrics: Sequence[MetricSpec], groups: Sequence[tuple[Sequence[int], np.ndarray]]
) -> list[list[float]]:
    """Posterior of x -> y versus no arc, both with prior weight 1/2, for
    every pair of _pair_count_tables groups, one list in pair order per
    metric."""
    return [
        [1.0 / (1.0 + _safe_exp(-lr)) for lr in log_ratios]
        for log_ratios in _pair_log_ratios(metrics, groups)
    ]


def arc_posterior_from_counts(metric: MetricSpec, counts: np.ndarray) -> float:
    """Posterior probability of x -> y versus no arc from a pair's joint count
    table (rows index x's states), both structures with prior weight 1/2.
    Raises DomainError unless counts is a non-empty 2-D table of non-negative
    integers whose total fits in int64."""
    counts = np.asarray(counts)
    if not (counts.ndim == 2 and counts.size and np.issubdtype(counts.dtype, np.integer)):
        raise DomainError("a pair count table must be a non-empty 2-D integer array")
    if counts.min() < 0:
        raise DomainError("counts must be non-negative")
    # The kernel sums rows and columns in int64.
    if counts.max() > (2**63 - 1) // counts.size:
        raise DomainError("counts must total less than 2**63")
    table = counts.astype(np.int64)
    return _arc_posteriors([metric], [([0], table[None])])[0][0]


def arc_posterior(metric: MetricSpec, x: int, y: int, data: Dataset) -> float:
    """Posterior probability of x -> y versus no arc, on the projected pair;
    raises ModelError unless x and y are distinct variables of data."""
    counts = joint_cell_counts((x, y), data)
    return arc_posterior_from_counts(metric, counts.reshape(data.variables[x].arity, -1))
