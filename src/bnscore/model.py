"""Graphs, datasets, and counting for discrete Bayesian networks, and the
CSV formatting that every result writer shares.

States are indexed 0..arity-1 internally; state labels exist for the I/O
boundary only.  Parent configurations and joint cells use mixed-radix
indexing with the first listed variable as the most significant digit,
which is numpy's C order (``np.ravel_multi_index``/``np.unravel_index``).
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ModelError",
    "Variable",
    "DagStructure",
    "Dataset",
    "BayesNet",
    "count_sufficient_stats",
    "joint_cell_counts",
    "d_separated",
    "marginally_d_separated_pairs",
    "ROW_SUM_TOL",
]

#: CPT rows must sum to one within this absolute tolerance.
ROW_SUM_TOL = 1e-9

# Cells a dense count table, and states a variable, may have: 128 MiB of
# int64, where ALARM's largest family table has 108 cells.
_MAX_CELLS = 1 << 24


class ModelError(ValueError):
    """A graph, variable, CPT or dataset that fails validation."""


@dataclass(frozen=True)
class Variable:
    """A discrete variable with a fixed, finite state space.

    ``state_labels`` defaults to "1".."arity" when omitted; labels must be
    distinct and there must be exactly one per state.
    """

    name: str
    arity: int
    state_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ModelError("variable name must be a non-empty string")
        # Checked before the default labels are built.
        if not 2 <= self.arity <= _MAX_CELLS:
            raise ModelError(
                f"variable {self.name!r}: arity must be 2 to {_MAX_CELLS}, got {self.arity}"
            )
        try:
            labels = tuple(str(s) for s in self.state_labels)
            if not labels:
                labels = tuple(str(k + 1) for k in range(self.arity))
            distinct = len(set(labels)) == len(labels)
        except MemoryError:
            raise MemoryError(
                f"variable {self.name!r}: the state labels of arity {self.arity} "
                "do not fit in memory"
            ) from None
        object.__setattr__(self, "state_labels", labels)
        if len(labels) != self.arity:
            raise ModelError(
                f"variable {self.name!r}: {len(labels)} state labels for arity {self.arity}"
            )
        if not distinct:
            raise ModelError(f"variable {self.name!r}: state labels must be distinct")

    def state_index(self, label: str) -> int:
        """Index of a state label; raises ModelError for unknown labels."""
        try:
            return self.state_labels.index(label)
        except ValueError:
            raise ModelError(f"variable {self.name!r} has no state labelled {label!r}") from None


def _validate_dag(
    parents: Sequence[Sequence[int]], names: Sequence[str]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Check parent sets for range, self-loops, duplicates, and acyclicity.

    Returns the topological order that takes the smallest ready index first,
    and each variable's children, ascending.
    Raises ModelError for an index out of range, a self-loop, a repeated
    parent or a cycle.
    """
    n = len(parents)
    for v, ps in enumerate(parents):
        seen: set[int] = set()
        for p in ps:
            if not 0 <= p < n:
                raise ModelError(
                    f"variable {names[v]!r}: parent index {p} out of range 0..{n - 1}"
                )
            if p == v:
                raise ModelError(f"variable {names[v]!r} lists itself as a parent")
            if p in seen:
                raise ModelError(f"variable {names[v]!r} lists parent {names[p]!r} twice")
            seen.add(p)

    # Kahn's algorithm.  Forward sampling draws in this order, so the
    # smallest-index tie rule fixes every dataset.
    indeg = [len(ps) for ps in parents]
    children: list[list[int]] = [[] for _ in parents]
    for v, ps in enumerate(parents):
        for p in ps:
            children[p].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != n:
        # A leftover variable (indeg > 0) keeps a leftover parent, so walking
        # from one to its first leftover parent must revisit a variable.
        pos: dict[int, int] = {}
        v = next(u for u in range(n) if indeg[u])
        while v not in pos:
            pos[v] = len(pos)
            v = next(p for p in parents[v] if indeg[p])
        loop = [*list(pos)[pos[v]:], v]  # child -> parent
        raise ModelError("cycle detected: " + " -> ".join(names[u] for u in reversed(loop)))
    return tuple(order), tuple(map(tuple, children))


@dataclass(frozen=True)
class DagStructure:
    """A directed acyclic graph over a fixed tuple of variables.

    ``parents[i]`` lists the parent indices of variable ``i`` in declaration
    order, which fixes the mixed-radix parent-configuration indexing.
    """

    variables: tuple[Variable, ...]
    parents: tuple[tuple[int, ...], ...]
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _children: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        parents = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "parents", parents)
        if not variables:
            raise ModelError("structure needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ModelError("variable names must be unique")
        if len(parents) != len(variables):
            raise ModelError(
                f"{len(parents)} parent sets for {len(variables)} variables"
            )
        order, children = _validate_dag(parents, names)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_children", children)

    @property
    def n(self) -> int:
        return len(self.variables)

    def parent_config_count(self, i: int) -> int:
        """Number of parent configurations q_i (1 for a root)."""
        q = 1
        for p in self.parents[self._check_index(i)]:
            q *= self.variables[p].arity
        return q

    def index_of(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ModelError(f"no variable named {name!r}")

    def children(self, i: int) -> tuple[int, ...]:
        return self._children[self._check_index(i)]

    def topological_order(self) -> tuple[int, ...]:
        """Variable indices, parents before children; ties by index."""
        return self._order

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """All (parent, child) arcs, children in index order."""
        return tuple(
            (p, c) for c in range(self.n) for p in self.parents[c]
        )

    def _check_index(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ModelError(f"variable index {i} out of range 0..{self.n - 1}")
        return i


def _as_case_array(variables: tuple[Variable, ...], cases) -> np.ndarray:
    """cases as an int64 array with one column per variable. A state that is
    not an integer (a float, string, bool or None) raises ModelError naming
    the first in row order, where int64 conversion would truncate or parse it.
    Ragged rows raise ModelError, which names the column count they lack."""
    try:
        arr = np.asarray(cases)
    except ValueError:  # ragged rows: as objects they make a 1-D array of rows
        arr = np.asarray(cases, dtype=object)
    if arr.dtype.kind not in "iuO":
        # Each state as given: numpy reads [(1, '1')] as two strings.
        arr = np.asarray(cases, dtype=object)
    if arr.size == 0:
        arr = arr.reshape(0, len(variables))
    if arr.ndim != 2 or arr.shape[1] != len(variables):
        raise ModelError(f"case array must have {len(variables)} columns, got shape {arr.shape}")
    if arr.dtype == object:
        for (_, col), state in np.ndenumerate(arr):
            v = variables[col]
            if isinstance(state, bool) or not isinstance(state, (int, np.integer)):
                raise ModelError(f"variable {v.name!r}: state {state!r} is not an integer")
            if not 0 <= state < v.arity:  # before int64, which a huge int overflows
                raise ModelError(f"variable {v.name!r}: state {state} outside 0..{v.arity - 1}")
    return arr.astype(np.int64, copy=False)


def _state_dtype(variables: Sequence[Variable]) -> np.dtype:
    """The dtype of every case array: the narrowest unsigned integer type that
    holds every state, uint8 up to arity 256 (ALARM's largest arity is 4)."""
    return np.min_scalar_type(max((v.arity for v in variables), default=1) - 1)


def _check_states(variables: tuple[Variable, ...], arr: np.ndarray) -> None:
    """Raise ModelError for the first column holding a state outside 0..arity-1."""
    for col, v in enumerate(variables):
        column = arr[:, col]
        if column.size and (column.min() < 0 or column.max() >= v.arity):
            bad = column[(column < 0) | (column >= v.arity)][0]
            raise ModelError(f"variable {v.name!r}: state {int(bad)} outside 0..{v.arity - 1}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete discrete data: one row per case, one column per variable.

    ``cases`` is copied column-major, as the narrowest unsigned integer type
    that holds every state (_state_dtype): sampling and counting read it by
    variable.  Forward sampling builds its array in that layout and type and
    hands it over uncopied."""

    variables: tuple[Variable, ...]
    cases: np.ndarray

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        cases = _as_case_array(variables, self.cases)
        # Checked in int64, so no state outside its range wraps into it.
        _check_states(variables, cases)
        self._own(np.array(cases, dtype=_state_dtype(variables), order="F"))

    @classmethod
    def _adopt(cls, variables: tuple[Variable, ...], cases: np.ndarray) -> "Dataset":
        """A Dataset over ``cases`` itself, not a copy: for a fresh
        (cases, variables) Fortran-order array of _state_dtype(variables)
        that its maker then drops."""
        data = object.__new__(cls)
        object.__setattr__(data, "variables", tuple(variables))
        _check_states(data.variables, cases)
        data._own(cases)
        return data

    def _own(self, arr: np.ndarray) -> None:
        """Keep arr read-only as the cases."""
        arr.setflags(write=False)
        object.__setattr__(self, "cases", arr)

    @property
    def n_cases(self) -> int:
        return self.cases.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.variables == other.variables and np.array_equal(
            self.cases, other.cases
        )


def _mixed_radix(cases: np.ndarray, cols: Sequence[int], arities: Sequence[int]) -> np.ndarray:
    """Fold the listed state columns, at least one, into flat indices, first most
    significant.  Same C order as np.ravel_multi_index, but faster on the sampling
    and counting paths."""
    # In int64 from the first digit on: an index can pass the cases' own type.
    idx = cases[:, cols[0]].astype(np.int64)
    for c, r in zip(cols[1:], arities[1:]):
        idx *= r
        idx += cases[:, c]
    return idx


def _check_schema(structure: DagStructure, data: Dataset) -> None:
    """Raise ModelError unless data holds exactly the structure's variables."""
    if data.variables != structure.variables:
        raise ModelError(
            "dataset schema does not match structure variables: "
            f"{[v.name for v in data.variables]} vs "
            f"{[v.name for v in structure.variables]}"
        )


def count_sufficient_stats(structure: DagStructure, data: Dataset) -> tuple[np.ndarray, ...]:
    """Count N_ijk for every (variable, parent config, state): each family's
    joint cell counts as one read-only (parent configs, arity) table."""
    _check_schema(structure, data)
    return tuple(
        joint_cell_counts((*structure.parents[i], i), data).reshape(-1, v.arity)
        for i, v in enumerate(structure.variables)
    )


def _checked_component(component: Sequence[int], variables: Sequence[Variable]) -> list[int]:
    """The component's variable indices; raises ModelError unless they
    are distinct indices into variables, at least one, and MemoryError when
    their joint table would have more than _MAX_CELLS cells."""
    cols = list(component)
    if not cols:
        raise ModelError("component must name at least one variable")
    for c in cols:
        if not 0 <= c < len(variables):
            raise ModelError(f"component index {c} out of range 0..{len(variables) - 1}")
    if len(set(cols)) != len(cols):
        raise ModelError("component lists a variable twice")
    cells = math.prod(variables[c].arity for c in cols)
    if cells > _MAX_CELLS:
        names = ", ".join(variables[c].name for c in cols)
        raise MemoryError(f"a count table over {names} would have {cells} cells, past {_MAX_CELLS}")
    return cols


def joint_cell_counts(component: Sequence[int], data: Dataset) -> np.ndarray:
    """Joint counts over a variable subset, flattened in mixed-radix order.

    The first listed variable is the most significant digit; the result has
    one entry per joint cell and sums to the number of cases.
    """
    cols = _checked_component(component, data.variables)
    arities = [data.variables[c].arity for c in cols]
    flat = _mixed_radix(data.cases, cols, arities)
    out = np.bincount(flat, minlength=math.prod(arities))
    out.setflags(write=False)
    return out


def _pair_count_tables(
    data: Dataset, pairs: Sequence[tuple[int, int]], reps: int = 1
) -> list[tuple[list[int], np.ndarray]]:
    """Joint count tables of many (x, y) pairs, grouped by shape (rx, ry).

    data holds reps replicates of equal size stacked, replicate r in the
    r-th block of rows. A key r * len(pairs) + i names pair i of replicate r.
    Returns (keys, int64 tables of shape (k, rx, ry)) per shape, each table
    equal to joint_cell_counts((x, y), data) reshaped, on its replicate's
    rows. The cases where a variable takes a state are packed into a
    bitset per replicate, so a cell count is the population count of two
    bitsets' intersection. Its pairs come in checked, each once per study
    by run_alarm_experiment.
    """
    variables, cases = data.variables, data.cases
    n_cases = cases.shape[0] // reps
    used = sorted({v for pair in pairs for v in pair})
    arities = [variables[v].arity for v in used]
    first_row = dict(zip(used, accumulate([0, *arities])))
    # Row first_row[v] + s of a replicate holds the cases where v takes
    # state s, one bit per case in 64-bit words; the bits past the last
    # case stay 0.
    words = np.zeros((reps, sum(arities), -(-n_cases // 64)), np.uint64)
    as_bytes = words.view(np.uint8)
    for v, r in zip(used, arities):
        states = np.arange(r, dtype=cases.dtype)[:, None]  # an int64 arange would cast every case
        column = cases[:, v].reshape(reps, 1, n_cases)
        packed = np.packbits(column == states, axis=-1, bitorder="little")
        as_bytes[:, first_row[v] : first_row[v] + r, : packed.shape[-1]] = packed

    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pairs):
        shapes.setdefault((variables[x].arity, variables[y].arity), []).append(i)
    groups = []
    for (rx, ry), positions in shapes.items():
        xs = np.array([first_row[pairs[i][0]] for i in positions])[:, None] + np.arange(rx)
        ys = np.array([first_row[pairs[i][1]] for i in positions])[:, None] + np.arange(ry)
        tables = np.empty((reps, len(positions), rx, ry), np.int64)
        for s in range(rx):
            both = words[:, ys]
            both &= words[:, xs[:, s, None]]
            tables[:, :, s] = np.bitwise_count(both).sum(-1, dtype=np.int64)
        keys = [r * len(pairs) + i for r in range(reps) for i in positions]
        groups.append((keys, tables.reshape(-1, rx, ry)))
    return groups


def d_separated(structure: DagStructure, x: int, y: int, given: Iterable[int] = ()) -> bool:
    """True when every path between x and y is blocked by the given set.

    Decided in the moral graph of the ancestors of x, y and the given set,
    where they are d-separated exactly when the given set cuts every path
    between them (Lauritzen, Dawid, Larsen & Leimer 1990).
    """
    x = structure._check_index(x)
    y = structure._check_index(y)
    z = frozenset(structure._check_index(g) for g in given)
    if x == y:
        raise ModelError("x and y must be distinct")
    if x in z or y in z:
        raise ModelError("x and y must not appear in the conditioning set")

    anc = {x, y, *z}
    frontier = list(anc)
    while frontier:
        for p in structure.parents[frontier.pop()]:
            if p not in anc:
                anc.add(p)
                frontier.append(p)

    # Moralise: link each variable to its parents, and its parents to each other.
    nbrs: dict[int, set[int]] = {v: set() for v in anc}
    for v in anc:
        ps = structure.parents[v]
        nbrs[v].update(ps)
        for p in ps:
            nbrs[p].update(ps)
            nbrs[p].add(v)

    seen = {x}
    frontier = [x]
    while frontier:
        for w in nbrs[frontier.pop()]:
            if w == y:
                return False
            if w not in seen and w not in z:
                seen.add(w)
                frontier.append(w)
    return True


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


def _check_cpt(v: Variable, q: int, cpt: np.ndarray) -> np.ndarray:
    arr = np.asarray(cpt, dtype=float)
    if arr.shape != (q, v.arity):
        raise ModelError(
            f"variable {v.name!r}: CPT shape {arr.shape} != ({q}, {v.arity})"
        )
    if arr.size and not 0.0 <= arr.min() <= arr.max() <= 1.0:  # NaN fails this too
        raise ModelError(f"variable {v.name!r}: CPT entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        j = int(bad[0])
        raise ModelError(
            f"variable {v.name!r}: CPT row {j} sums to {float(sums[j])!r}, not 1"
        )
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BayesNet:
    """A DAG plus one conditional probability table per variable.

    ``cpts[i]`` has shape (parent configs, arity); each row sums to one
    within ROW_SUM_TOL.
    """

    structure: DagStructure
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cpts = tuple(self.cpts)
        if len(cpts) != self.structure.n:
            raise ModelError(
                f"{len(cpts)} CPTs for {self.structure.n} variables"
            )
        checked = tuple(
            _check_cpt(v, self.structure.parent_config_count(i), cpt)
            for i, (v, cpt) in enumerate(zip(self.structure.variables, cpts))
        )
        object.__setattr__(self, "cpts", checked)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BayesNet):
            return NotImplemented
        return self.structure == other.structure and all(
            np.array_equal(a, b) for a, b in zip(self.cpts, other.cpts)
        )


def _fmt(value: float | None) -> str:
    """A float as the result CSVs write it: 12 significant digits, empty for None."""
    return "" if value is None else format(value, ".12g")


def _csv_rows(rows) -> str:
    """CSV text of rows, with LF line endings."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows, with LF line endings."""
    return _csv_rows(chain([header], rows))
