"""The eleven two-variable benchmark examples, and forward sampling.

An example holds the marginals of two independent variables, X and Y, and
a list of dataset sizes.  Its noise-free table at size N gives each joint
cell round(p * N) cases (half away from zero), with no renormalisation.
Every table comes from an independent joint, so the dependent structure
X -> Y never deserves more posterior mass asymptotically, and each
metric's small-sample behaviour shows up in the dependent/independent
ratio.  Forward sampling draws cases ancestrally from a full network.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import BayesNet, Dataset, _mixed_radix, _state_dtype
from .netio import _csv_text, _fmt
from .scoring import DomainError, MetricSpec, RatioResult, _pair_log_ratios, _safe_exp

__all__ = [
    "ExampleSpec",
    "EXAMPLES",
    "DEFAULT_ALPHA0S",
    "ALPHA0_GRID",
    "RatioRow",
    "forward_sample",
    "run_example",
    "ratio_table_csv",
]

#: BDeu equivalent sample sizes reported in every example's ratio table.
DEFAULT_ALPHA0S = (0.01, 1.0, 4.0)

#: 61 log-spaced alpha0 values covering 1e-2 .. 1e4.
ALPHA0_GRID = tuple(float(a) for a in np.logspace(-2.0, 4.0, 61))


def _as_int(value) -> int | None:
    """value as an int through operator.index, so numpy integers pass; None
    for a non-integer or a bool, which operator.index would take as 0 or 1."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def forward_sample(net: BayesNet, n_cases: int, seed: int) -> Dataset:
    """Draw complete cases ancestrally, parents before children.

    Sampling is vectorised per variable with numpy's default generator, so
    a given (net, n_cases, seed) triple always yields the same dataset.
    A state is the number of the first r - 1 cumulative CPT entries of its
    parent configuration below u ~ U[0, 1): the inverse CDF, as rows never decrease.
    """
    checked = _as_int(n_cases), _as_int(seed)
    if None in checked:
        raise DomainError(f"n_cases and seed must be integers, got {n_cases!r} and {seed!r}")
    n_cases, seed = checked
    if n_cases < 0 or seed < 0:
        raise DomainError(f"n_cases and seed must be non-negative, got {n_cases} and {seed}")
    return _sample_stack(net, n_cases, [seed])


def _sample_stack(net: BayesNet, n_cases: int, seeds: Sequence[int]) -> Dataset:
    """One Dataset of len(seeds) replicates of n_cases cases each: rows
    r * n_cases up to (r + 1) * n_cases hold forward_sample(net, n_cases,
    seeds[r]), case for case.

    The stack is drawn one variable at a time. Replicate r keeps its own
    default_rng(seeds[r]) and draws its n_cases uniforms for a variable into
    its own block of one buffer; k such draws give the doubles of one draw
    of k * n_cases, so each replicate's stream is forward_sample's.
    """
    structure = net.structure
    dtype = _state_dtype(structure.variables)
    total = len(seeds) * n_cases
    # Past np.intp bytes numpy raises a bare ValueError, not a MemoryError.
    if total * structure.n * dtype.itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{total} cases of {structure.n} variables do not fit in memory")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    cases = np.zeros((total, structure.n), dtype=dtype, order="F")
    u = np.empty(total)
    blocks = u.reshape(len(seeds), n_cases)
    for i in structure.topological_order():
        ps = structure.parents[i]
        # A root has one parent configuration, 0: each case meets the same thresholds.
        config = _mixed_radix(cases, ps, [structure.variables[p].arity for p in ps]) if ps else 0
        cdf = np.cumsum(net.cpts[i], axis=1)
        for rng, block in zip(rngs, blocks):
            rng.random(out=block)
        state = cases[:, i]
        for k in range(structure.variables[i].arity - 1):
            state += u > cdf[:, k][config]
    return Dataset._adopt(structure.variables, cases)


@dataclass(frozen=True)
class ExampleSpec:
    """One benchmark example: the marginals of two independent variables,
    X then Y, each a vector of two or more entries summing to 1, and the
    dataset sizes, each a non-negative integer."""

    example: int
    marginals: tuple[tuple[float, ...], ...]
    sizes: tuple[int, ...]
    alpha0_values: tuple[float, ...] = DEFAULT_ALPHA0S
    sweep: tuple[float, ...] | None = None


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


def _bdeu_grid(grid: Sequence[float]) -> list[MetricSpec]:
    """BDeu at each alpha0 of a non-empty, strictly increasing grid."""
    grid = [float(a) for a in grid]
    if not grid:
        raise DomainError("alpha0 grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("alpha0 grid must be strictly increasing")
    return [MetricSpec.bdeu(a0) for a0 in grid]


def _noise_free_tables(spec: ExampleSpec) -> tuple[list[int], np.ndarray]:
    """The example's sizes, and each size's table stacked as (sizes, |X|, |Y|):
    round(p * n) per cell of the outer product of the two marginals, each
    divided by its sum, rounding half away from zero."""
    if len(spec.marginals) != 2:
        raise DomainError(f"an example needs 2 marginals, got {len(spec.marginals)}")
    margs = []
    for name, given in zip("XY", spec.marginals):
        try:
            m = np.asarray(given, dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"marginal for {name!r} must be numbers, got {given!r}") from None
        if m.ndim != 1 or m.size < 2:
            raise DomainError(f"marginal for {name!r} must be a vector of length >= 2")
        if m.min() < 0.0:
            raise DomainError(f"marginal for {name!r} has negative entries")
        if not abs(float(m.sum()) - 1.0) <= 1e-12:  # NaN fails this too
            raise DomainError(f"marginal for {name!r} sums to {float(m.sum())!r}, not 1")
        margs.append(m / m.sum())
    joint = np.outer(*margs)
    sizes = []
    for n in spec.sizes:
        size = _as_int(n)
        if size is None:
            raise DomainError(f"n_cases must be an integer, got {n!r}")
        if size < 0:
            raise DomainError(f"n_cases must be non-negative, got {size}")
        if size >= 2**62:  # past it a table's total can overflow the kernel's int64 sums
            raise DomainError(f"n_cases must be below 2**62, got {size}")
        sizes.append(size)
    tables = [np.floor(joint * n + 0.5).astype(np.int64) for n in sizes]
    return sizes, np.reshape(tables, (-1, *joint.shape))


def run_example(spec: ExampleSpec) -> list[RatioRow]:
    """Score one example at every size: BDeu per alpha0, then K2, then GU.

    When the example carries a sweep grid, rows with metric 'bdeu_sweep'
    follow for each grid point, closed by one 'bdeu_max' row per size
    whose alpha0 column holds the maximising grid value.  Every size's
    table is scored under every metric in one kernel call.
    """
    sizes, tables = _noise_free_tables(spec)
    metrics = [*map(MetricSpec.bdeu, spec.alpha0_values), MetricSpec.k2(), MetricSpec.gu()]
    grid = [] if spec.sweep is None else _bdeu_grid(spec.sweep)
    log_ratios = _pair_log_ratios([*metrics, *grid], [(range(len(sizes)), tables)])
    rows, sweeps = [], []
    for n, *lrs in zip(sizes, *log_ratios):
        rows += [RatioRow(_safe_exp(lr), lr, spec.example, m.kind, m.alpha0, n)
                 for m, lr in zip(metrics, lrs)]
        sweep = [RatioRow(_safe_exp(lr), lr, spec.example, "bdeu_sweep", m.alpha0, n)
                 for m, lr in zip(grid, lrs[len(metrics):])]
        if sweep:
            sweeps += [*sweep, replace(max(sweep, key=lambda r: r.log_ratio), metric="bdeu_max")]
    return rows + sweeps


def ratio_table_csv(rows: Sequence[RatioRow]) -> str:
    """Render ratio rows as CSV: example,metric,alpha0,n,ratio,log10_ratio."""
    return _csv_text(
        ["example", "metric", "alpha0", "n", "ratio", "log10_ratio"],
        ([r.example, r.metric, _fmt(r.alpha0), r.n, _fmt(r.ratio), _fmt(r.log10_ratio)]
         for r in rows),
    )
