"""Independent oracles used to freeze expected values.

Everything here is exact rational arithmetic (fractions.Fraction), brute
force, a closed form, a Monte Carlo estimate, or a plainer form of a
vectorised routine, deliberately sharing no code with the package: rising
factorials instead of lgamma, path enumeration instead of reachability, a
full inverse-CDF gather instead of column-wise threshold counts, a dataset
CSV read one record at a time instead of in blocks, noise-free cells
rounded one Python float at a time instead of as an array.  Only the
package's DomainError and RatioResult types are imported.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import count, permutations, product
from math import factorial

import numpy as np

from bnscore import DomainError, RatioResult

# Monte Carlo draws per batch, bounding the (batch, k) draw array.
_MC_BATCH = 1 << 18


def rising(a: Fraction, n: int) -> Fraction:
    """a (a+1) ... (a+n-1), exactly."""
    out = Fraction(1)
    for t in range(n):
        out *= a + t
    return out


def ddm_exact(counts, alphas) -> Fraction:
    """Dirichlet-multinomial marginal likelihood, exactly."""
    counts = [int(c) for c in counts]
    alphas = [Fraction(a) for a in alphas]
    total = rising(sum(alphas), sum(counts))
    out = Fraction(1)
    for c, a in zip(counts, alphas):
        out *= rising(a, c)
    return out / total


def family_score_exact(arities, parents, cases, alpha_of) -> Fraction:
    """Exact likelihood of a complete dataset under per-family priors.

    alpha_of(i, q, r) returns the per-cell pseudo-count as a Fraction.
    """
    score = Fraction(1)
    for i, r in enumerate(arities):
        ps = list(parents[i])
        q = 1
        for p in ps:
            q *= arities[p]
        a = alpha_of(i, q, r)
        for config in product(*[range(arities[p]) for p in ps]):
            counts = [0] * r
            for case in cases:
                if all(case[p] == s for p, s in zip(ps, config)):
                    counts[case[i]] += 1
            score *= ddm_exact(counts, [a] * r)
    return score


def k2_exact(arities, parents, cases) -> Fraction:
    return family_score_exact(arities, parents, cases, lambda i, q, r: Fraction(1))


def bdeu_exact(arities, parents, cases, alpha0: Fraction) -> Fraction:
    a0 = Fraction(alpha0)
    return family_score_exact(
        arities, parents, cases, lambda i, q, r: a0 / (q * r)
    )


def gu_exact(arities, components, cases) -> Fraction:
    """Exact GU score: one uniform joint prior per skeleton component."""
    n_total = len(cases)
    score = Fraction(1)
    for comp in components:
        comp = list(comp)
        cells = 1
        for v in comp:
            cells *= arities[v]
        counts: dict[tuple, int] = {}
        for case in cases:
            key = tuple(case[v] for v in comp)
            counts[key] = counts.get(key, 0) + 1
        num = factorial(cells - 1)
        for c in counts.values():
            num *= factorial(c)
        score *= Fraction(num, factorial(cells + n_total - 1))
    return score


def pair_cases(table) -> list[tuple[int, int]]:
    """Expand a 2-D count table into explicit (x, y) cases, cell order."""
    cases = []
    for i, row in enumerate(table):
        for j, c in enumerate(row):
            cases.extend([(i, j)] * int(c))
    return cases


def noise_free_cases(marginals, n_cases: int) -> list[tuple[int, int]]:
    """The noise-free cases of two independent marginals, in cell order: cell
    (x, y) holds round(px * py * n_cases) cases, half away from zero, after
    each marginal is divided by its sum."""
    px, py = ([p / sum(m) for p in m] for m in marginals)
    return pair_cases([[math.floor(a * b * n_cases + 0.5) for b in py] for a in px])


def _all_simple_paths(n, edges, x, y):
    """All simple undirected paths x..y; edges is a set of directed (a, b)."""
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    paths = []

    def walk(v, path):
        if v == y:
            paths.append(list(path))
            return
        for w in sorted(nbrs[v]):
            if w not in path:
                path.append(w)
                walk(w, path)
                path.pop()

    walk(x, [x])
    return paths


def d_separated_brute(n, edges, x, y, given) -> bool:
    """Path-enumeration d-separation on small graphs.

    A path is active when every inner node that is a collider has itself or
    a descendant in the conditioning set, and every other inner node is
    outside it.
    """
    given = set(given)
    desc = {v: {v} for v in range(n)}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if not desc[b] <= desc[a]:
                desc[a] |= desc[b]
                changed = True
    for path in _all_simple_paths(n, edges, x, y):
        active = True
        for k in range(1, len(path) - 1):
            prev, v, nxt = path[k - 1], path[k], path[k + 1]
            collider = (prev, v) in edges and (nxt, v) in edges
            if collider:
                if not (desc[v] & given):
                    active = False
                    break
            elif v in given:
                active = False
                break
        if active:
            return False
    return True


def smallest_topological_order(n, edges) -> tuple[int, ...]:
    """The lexicographically smallest ordering of 0..n-1 that puts every arc's
    tail before its head, found by trying all n! orderings in lexicographic
    order; edges is a set of directed (a, b)."""
    return next(p for p in permutations(range(n)) if all(p.index(a) < p.index(b) for a, b in edges))


def forward_sample_reference(net, n_cases: int, seed: int) -> np.ndarray:
    """Ancestral sampling by gathering each case's whole CDF row.

    Draws the same uniforms as the package's sampler, one vector per
    variable in topological order, and picks the state by counting all r
    cumulative entries below u, clamped to r - 1.  Returns the raw
    row-major case array.
    """
    structure = net.structure
    rng = np.random.default_rng(seed)
    cases = np.zeros((n_cases, structure.n), dtype=np.int64)
    for i in structure.topological_order():
        config = np.zeros(n_cases, dtype=np.int64)
        for p in structure.parents[i]:
            config = config * structure.variables[p].arity + cases[:, p]
        cdf = np.cumsum(net.cpts[i], axis=1)
        u = rng.random(n_cases)
        cases[:, i] = np.minimum(
            (u[:, None] > cdf[config]).sum(axis=1), structure.variables[i].arity - 1
        )
    return cases


def _cell_state(variable, raw: str) -> int | None:
    """The state a dataset cell names, None for an empty cell, -1 for none."""
    cell = raw.strip()
    if not cell:
        return None
    if cell in variable.state_labels:
        return variable.state_labels.index(cell)
    if cell.isdecimal() and not any(label.isdecimal() for label in variable.state_labels):
        try:
            index = int(cell)
        except ValueError:  # more digits than int() reads
            return -1
        return index if index < variable.arity else -1
    return -1


def parse_dataset_reference(text: str, variables):
    """A dataset CSV read one record at a time, the header being row 0 and
    blank records counted but skipped: the cases as lists of states in the
    variables' order, or ("DatasetFormatError", message) of the first fault
    in row order."""
    names = [v.name for v in variables]
    by_name = {v.name: v for v in variables}
    reader = csv.reader(io.StringIO(text))  # split at line feeds only
    header = None
    cases = []
    for row in count():
        try:
            cells = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            return "DatasetFormatError", f"{f'row {row}' if row else 'header row'}: {exc}"
        if header is None:
            if sorted(cells) != sorted(names):
                return "DatasetFormatError", f"header {cells!r} does not match schema variables {names!r}"
            header = cells
            continue
        if not cells:
            continue
        if len(cells) > len(header):
            return "DatasetFormatError", f"row {row}: {len(cells)} cells for {len(header)} columns"
        states = {}
        for j, name in enumerate(header):
            raw = cells[j] if j < len(cells) else ""
            state = _cell_state(by_name[name], raw)
            if state is None:
                return "DatasetFormatError", f"row {row}, column {name!r}: missing value"
            if state < 0:
                return "DatasetFormatError", f"row {row}, column {name!r}: unknown state {raw.strip()!r}"
            states[name] = state
        cases.append([states[name] for name in names])
    if header is None:
        return "DatasetFormatError", "dataset has no header row"
    return cases


def roc_points_reference(pairs) -> tuple[tuple[float, float], ...]:
    """ROC points by grouping the scores in a dict and sweeping its keys in
    descending order, one (fpr, tpr) after each distinct score."""
    n_pos = sum(1 for p in pairs if p.label)
    n_neg = len(pairs) - n_pos
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
    return tuple(points)


def trapezoid_reference(points) -> float:
    """Trapezoidal area under ROC points, one segment at a time in order."""
    total = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        total += (f1 - f0) * (t0 + t1) / 2.0
    return total


def mann_whitney_reference(pairs) -> float:
    """Share of (positive, negative) pairs the positive outscores, ties
    counting 1/2, by comparing every such pair."""
    pos = [p.score for p in pairs if p.label]
    neg = [p.score for p in pairs if not p.label]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def mean_roc_reference(curves, grid) -> tuple[tuple[float, float], ...]:
    """Vertical average by rescanning every curve's points at each grid fpr,
    adding the curves' tprs in order."""
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
    return tuple(zip(grid, means))


def mc_marginal_saturated(counts, samples: int, seed: int) -> tuple[float, float]:
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
        m = min(remaining, _MC_BATCH)
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
    # math.exp overflows just above 709; the ratio is then inf.
    ratio = math.exp(log_ratio) if log_ratio <= 709.0 else math.inf
    return RatioResult(ratio, log_ratio)


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
