"""Benchmark dataset generation and the eleven two-variable examples.

Noise-free datasets realise a joint distribution as exactly as a finite
sample allows: each joint cell receives round(p * N) cases (half away from
zero), with no renormalisation, laid out in mixed-radix cell order.
Forward sampling draws cases ancestrally from a full network.

The example registry pairs two independent binary variables X and Y with
marginals chosen to probe prior strength: every dataset is generated from
an independent joint, so the dependent structure X -> Y never deserves more
posterior mass asymptotically, and each metric's small-sample behaviour
shows up in the dependent/independent ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BayesNet, Dataset, Variable, _mixed_radix, _pair_count_tables, _state_dtype
from .netio import _csv_text, _fmt
from .scoring import DomainError, MetricSpec, RatioResult, _pair_log_ratios, _safe_exp

__all__ = [
    "JointTable",
    "ExampleSpec",
    "EXAMPLES",
    "DEFAULT_ALPHA0S",
    "ALPHA0_GRID",
    "RatioRow",
    "SweepResult",
    "independent_joint",
    "noise_free_dataset",
    "forward_sample",
    "run_example",
    "alpha0_sweep",
    "ratio_table_csv",
]

#: BDeu equivalent sample sizes reported in every example's ratio table.
DEFAULT_ALPHA0S = (0.01, 1.0, 4.0)

#: 61 log-spaced alpha0 values covering 1e-2 .. 1e4.
ALPHA0_GRID = tuple(float(a) for a in np.logspace(-2.0, 4.0, 61))

_JOINT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JointTable:
    """A joint distribution over a variable tuple, flattened in
    mixed-radix cell order (first variable most significant)."""

    variables: tuple[Variable, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        if not variables:
            raise DomainError("a joint needs at least one variable")
        cells = 1
        for v in variables:
            cells *= v.arity
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if probs.size != cells:
            raise DomainError(f"{probs.size} cells for a {cells}-cell joint")
        if probs.min() < 0.0:
            raise DomainError("joint probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > _JOINT_SUM_TOL:
            raise DomainError(f"joint sums to {float(probs.sum())!r}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def independent_joint(
    marginals: Sequence[Sequence[float]], names: Sequence[str] | None = None
) -> JointTable:
    """Product joint of independent marginals, one variable per marginal."""
    margs = [np.asarray(m, dtype=float) for m in marginals]
    if not margs:
        raise DomainError("need at least one marginal")
    if names is None:
        names = [f"X{i + 1}" for i in range(len(margs))]
    if len(names) != len(margs):
        raise DomainError(f"{len(names)} names for {len(margs)} marginals")
    variables = []
    for name, m in zip(names, margs):
        if m.ndim != 1 or m.size < 2:
            raise DomainError(f"marginal for {name!r} must be a vector of length >= 2")
        if m.min() < 0.0:
            raise DomainError(f"marginal for {name!r} has negative entries")
        if abs(float(m.sum()) - 1.0) > _JOINT_SUM_TOL:
            raise DomainError(f"marginal for {name!r} sums to {float(m.sum())!r}, not 1")
        variables.append(Variable(str(name), m.size))
    joint = margs[0]
    for m in margs[1:]:
        joint = np.outer(joint, m).reshape(-1)
    return JointTable(tuple(variables), joint)


def noise_free_dataset(joint: JointTable, n_cases: int) -> Dataset:
    """The most faithful size-n realisation of a joint distribution.

    Each cell contributes round(p * n_cases) cases, rounding half away
    from zero, with no renormalisation; the total can therefore differ
    from n_cases by at most half the number of cells.  Cases appear in
    mixed-radix cell order.
    """
    if n_cases < 0:
        raise DomainError(f"n_cases must be non-negative, got {n_cases}")
    counts = np.floor(joint.probs * n_cases + 0.5).astype(np.int64)
    arities = [v.arity for v in joint.variables]
    cells = np.stack(np.unravel_index(np.arange(counts.size), arities), axis=1)
    cases = np.repeat(cells, counts, axis=0)
    return Dataset(joint.variables, cases)


def forward_sample(net: BayesNet, n_cases: int, seed: int) -> Dataset:
    """Draw complete cases ancestrally, parents before children.

    Sampling is vectorised per variable with numpy's default generator, so
    a given (net, n_cases, seed) triple always yields the same dataset.
    A state is the number of the first r - 1 cumulative CPT entries of its
    parent configuration below u ~ U[0, 1): the inverse CDF, as rows never decrease.
    """
    if n_cases < 0 or seed < 0:
        raise DomainError(f"n_cases and seed must be non-negative, got {n_cases} and {seed}")
    structure = net.structure
    dtype = _state_dtype(structure.variables)
    # Past np.intp bytes numpy raises a bare ValueError, not a MemoryError.
    if n_cases * structure.n * dtype.itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{n_cases} cases of {structure.n} variables do not fit in memory")
    rng = np.random.default_rng(seed)
    cases = np.zeros((n_cases, structure.n), dtype=dtype, order="F")
    for i in structure.topological_order():
        ps = structure.parents[i]
        # A root has one parent configuration, 0: each case meets the same thresholds.
        config = _mixed_radix(cases, ps, [structure.variables[p].arity for p in ps]) if ps else 0
        cdf = np.cumsum(net.cpts[i], axis=1)
        u = rng.random(n_cases)
        state = cases[:, i]
        for k in range(structure.variables[i].arity - 1):
            state += u > cdf[:, k][config]
    return Dataset._adopt(structure.variables, cases)


@dataclass(frozen=True)
class ExampleSpec:
    """One benchmark example: per-variable marginals and dataset sizes."""

    example: int
    marginals: tuple[tuple[float, ...], ...]
    sizes: tuple[int, ...]
    alpha0_values: tuple[float, ...] = DEFAULT_ALPHA0S
    sweep: tuple[float, ...] | None = None

    def joint(self) -> JointTable:
        names = ("X", "Y") if len(self.marginals) == 2 else None
        return independent_joint(self.marginals, names)


def _binary_pair(px: float, py: float) -> tuple[tuple[float, ...], ...]:
    return ((px, 1.0 - px), (py, 1.0 - py))


#: The eleven examples: extreme to uniform marginals, plus a size sweep
#: (example 10) and an alpha0 sweep on the same joint (example 11).
EXAMPLES: dict[int, ExampleSpec] = {
    1: ExampleSpec(1, _binary_pair(1.0, 1.0), (10, 1000, 100000)),
    2: ExampleSpec(2, _binary_pair(0.999, 0.999), (1000,)),
    3: ExampleSpec(3, _binary_pair(0.9, 0.999), (1000,)),
    4: ExampleSpec(4, _binary_pair(0.7, 0.999), (1000,)),
    5: ExampleSpec(5, _binary_pair(0.5, 0.999), (1000,)),
    6: ExampleSpec(6, _binary_pair(0.5, 0.5), (1000,)),
    7: ExampleSpec(7, _binary_pair(0.9, 0.5), (1000,)),
    8: ExampleSpec(8, _binary_pair(0.99, 0.5), (1000,)),
    9: ExampleSpec(9, _binary_pair(0.9995, 0.5), (1000,)),
    10: ExampleSpec(10, _binary_pair(0.999, 0.55), (100, 500, 1000, 2000)),
    11: ExampleSpec(
        11, _binary_pair(0.999, 0.55), (100, 500, 1000, 2000), sweep=ALPHA0_GRID
    ),
}


@dataclass(frozen=True)
class RatioRow(RatioResult):
    """One dependent/independent ratio at a given metric and dataset size."""

    example: int
    metric: str
    alpha0: float | None
    n: int


@dataclass(frozen=True)
class SweepResult:
    """Dependent/independent ratios over an alpha0 grid, with the maximum."""

    points: tuple[tuple[float, float, float], ...]  # (alpha0, ratio, log_ratio)
    argmax_alpha0: float
    max_ratio: float
    max_log_ratio: float


def alpha0_sweep(
    joint: JointTable, n_cases: int, grid: Sequence[float] = ALPHA0_GRID
) -> SweepResult:
    """BDeu dependent/independent ratio across an ascending alpha0 grid."""
    grid = tuple(float(a) for a in grid)
    if not grid:
        raise DomainError("alpha0 grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("alpha0 grid must be strictly increasing")
    counts = _pair_count_tables(noise_free_dataset(joint, n_cases), [(0, 1)])
    log_ratios = _pair_log_ratios([MetricSpec.bdeu(a0) for a0 in grid], counts)
    points = tuple((a0, _safe_exp(lr), lr) for a0, (lr,) in zip(grid, log_ratios))
    best = max(points, key=lambda p: p[2])
    return SweepResult(points, best[0], best[1], best[2])


def run_example(spec: ExampleSpec) -> list[RatioRow]:
    """Score one example at every size: BDeu per alpha0, then K2, then GU.

    When the example carries a sweep grid, rows with metric 'bdeu_sweep'
    follow for each grid point, closed by one 'bdeu_max' row per size
    whose alpha0 column holds the maximising grid value.
    """
    joint = spec.joint()
    metrics = [*map(MetricSpec.bdeu, spec.alpha0_values), MetricSpec.k2(), MetricSpec.gu()]
    rows: list[RatioRow] = []
    for n in spec.sizes:
        # Counted once per dataset, scored by every metric in one kernel call.
        counts = _pair_count_tables(noise_free_dataset(joint, n), [(0, 1)])
        for metric, (lr,) in zip(metrics, _pair_log_ratios(metrics, counts)):
            rows.append(RatioRow(_safe_exp(lr), lr, spec.example, metric.kind, metric.alpha0, n))
    if spec.sweep is not None:
        for n in spec.sizes:
            sweep = alpha0_sweep(joint, n, spec.sweep)
            for a0, ratio, log_ratio in sweep.points:
                rows.append(
                    RatioRow(ratio, log_ratio, spec.example, "bdeu_sweep", a0, n)
                )
            rows.append(
                RatioRow(
                    sweep.max_ratio,
                    sweep.max_log_ratio,
                    spec.example,
                    "bdeu_max",
                    sweep.argmax_alpha0,
                    n,
                )
            )
    return rows


def ratio_table_csv(rows: Sequence[RatioRow]) -> str:
    """Render ratio rows as CSV: example,metric,alpha0,n,ratio,log10_ratio."""
    return _csv_text(
        ["example", "metric", "alpha0", "n", "ratio", "log10_ratio"],
        ([r.example, r.metric, _fmt(r.alpha0), r.n, _fmt(r.ratio), _fmt(r.log10_ratio)]
         for r in rows),
    )
