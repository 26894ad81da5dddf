"""Plain-text network format and dataset CSV I/O.

Network files are line based:

    # comment
    var NAME ARITY LABEL...
    arc PARENT CHILD
    cpt CHILD | P1=label P2=label ... : p1 p2 ... pK
    cpt CHILD | : p1 p2 ... pK          (root variable)

Variables must be declared before any arc or cpt line that names them.
CPT rows whose sum drifts from one by at most ROW_SUM_TOL are renormalised
silently; beyond that the file is rejected.  Probabilities are written with
17 significant digits so that parse(serialize(net)) is an exact fixed point.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    ROW_SUM_TOL,
    BayesNet,
    DagStructure,
    Dataset,
    ModelError,
    Variable,
    _state_dtype,
)

__all__ = [
    "NetworkSyntaxError",
    "DatasetFormatError",
    "NetworkDocument",
    "parse_network",
    "parse_structure",
    "serialize_network",
    "parse_dataset",
    "write_dataset",
    "load_alarm",
    "alarm_path",
]

# Keep float bits on parse when a row is this close to one; renormalise
# quietly up to ROW_SUM_TOL, reject beyond it.
_EXACT_ROW_TOL = 1e-12


class NetworkSyntaxError(ValueError):
    """A malformed line in a network file."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class DatasetFormatError(ValueError):
    """A malformed dataset CSV."""


@dataclass(frozen=True)
class NetworkDocument:
    """A parsed network."""

    net: BayesNet

    @property
    def structure(self) -> DagStructure:
        return self.net.structure


def _tokenize(text: str):
    """Yield (line number, tokens) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_lines(text: str):
    """First pass: the structure from var and arc lines, its name -> index
    map, each variable's var line number, and the cpt lines, collected."""
    variables: dict[str, Variable] = {}
    var_lines: dict[str, int] = {}
    parents: dict[str, list[str]] = {}
    cpt_lines: list[tuple[int, list[str]]] = []

    for lineno, tokens in _tokenize(text):
        kind = tokens[0]
        if kind == "var":
            if len(tokens) < 3:
                raise NetworkSyntaxError(lineno, "var needs a name and an arity")
            name = tokens[1]
            if name in variables:
                raise NetworkSyntaxError(lineno, f"variable {name!r} declared twice")
            try:
                arity = int(tokens[2])
            except ValueError:
                raise NetworkSyntaxError(
                    lineno, f"arity must be an integer, got {tokens[2]!r}"
                ) from None
            try:
                variables[name] = Variable(name, arity, tuple(tokens[3:]))
            except ValueError as exc:
                raise NetworkSyntaxError(lineno, str(exc)) from None
            var_lines[name] = lineno
            parents[name] = []
        elif kind == "arc":
            if len(tokens) != 3:
                raise NetworkSyntaxError(lineno, "arc needs exactly two names")
            parent, child = tokens[1], tokens[2]
            for name in (parent, child):
                if name not in variables:
                    raise NetworkSyntaxError(lineno, f"arc names undeclared variable {name!r}")
            if parent in parents[child]:
                raise NetworkSyntaxError(
                    lineno, f"duplicate arc {parent} -> {child}"
                )
            parents[child].append(parent)
        elif kind == "cpt":
            if len(tokens) < 2:
                raise NetworkSyntaxError(lineno, "cpt needs a variable name")
            if tokens[1] not in variables:
                raise NetworkSyntaxError(lineno, f"cpt names undeclared variable {tokens[1]!r}")
            cpt_lines.append((lineno, tokens))
        else:
            raise NetworkSyntaxError(lineno, f"unknown directive {kind!r}")

    if not variables:
        raise NetworkSyntaxError(0, "no variables declared")
    index = {name: i for i, name in enumerate(variables)}
    structure = DagStructure(
        tuple(variables.values()),
        tuple(tuple(index[p] for p in ps) for ps in parents.values()),
    )
    return structure, index, var_lines, cpt_lines


def parse_structure(text: str) -> DagStructure:
    """Parse only var and arc lines; cpt lines are ignored if present."""
    return _parse_lines(text)[0]


def _parse_cpt_row(lineno, tokens, structure, index):
    """Decode one cpt line into (variable index, config index, row values)."""
    child = tokens[1]
    i = index[child]
    ps = structure.parents[i]
    rest = tokens[2:]
    if not rest or rest[0] != "|":
        raise NetworkSyntaxError(lineno, "cpt line must read 'cpt NAME | ... : ...'")
    try:
        colon = rest.index(":")
    except ValueError:
        raise NetworkSyntaxError(lineno, "cpt line is missing ':'") from None
    condition, value_tokens = rest[1:colon], rest[colon + 1:]

    assigned: dict[int, int] = {}
    for tok in condition:
        if "=" not in tok:
            raise NetworkSyntaxError(lineno, f"condition {tok!r} is not NAME=label")
        pname, _, label = tok.partition("=")
        if pname not in index:
            raise NetworkSyntaxError(lineno, f"condition names undeclared variable {pname!r}")
        p = index[pname]
        if p not in ps:
            raise NetworkSyntaxError(
                lineno, f"{pname!r} is not a parent of {child!r}"
            )
        if p in assigned:
            raise NetworkSyntaxError(lineno, f"parent {pname!r} assigned twice")
        try:
            assigned[p] = structure.variables[p].state_index(label)
        except ValueError:
            raise NetworkSyntaxError(
                lineno, f"variable {pname!r} has no state labelled {label!r}"
            ) from None
    missing = [p for p in ps if p not in assigned]
    if missing:
        names = ", ".join(structure.variables[p].name for p in missing)
        raise NetworkSyntaxError(lineno, f"cpt row for {child!r} leaves {names} unassigned")

    # In Python ints, first parent most significant: the index can pass int64.
    config = 0
    for p in ps:
        config = config * structure.variables[p].arity + assigned[p]

    arity = structure.variables[i].arity
    if len(value_tokens) != arity:
        raise NetworkSyntaxError(
            lineno, f"{len(value_tokens)} probabilities for arity {arity}"
        )
    try:
        row = np.array([float(t) for t in value_tokens])
    except ValueError:
        raise NetworkSyntaxError(lineno, "probabilities must be numeric") from None
    if np.any(~np.isfinite(row)) or row.min() < 0.0 or row.max() > 1.0:
        raise NetworkSyntaxError(lineno, "probabilities must lie in [0, 1]")
    return i, config, row


def parse_network(text: str) -> NetworkDocument:
    """Parse a full network file into a validated BayesNet."""
    structure, index, var_lines, cpt_lines = _parse_lines(text)

    rows: dict[tuple[int, int], np.ndarray] = {}
    for lineno, tokens in cpt_lines:
        i, config, row = _parse_cpt_row(lineno, tokens, structure, index)
        where = f"cpt row for {structure.variables[i].name!r} (config {config})"
        if (i, config) in rows:
            raise NetworkSyntaxError(lineno, f"duplicate {where}")
        total = float(row.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise NetworkSyntaxError(lineno, f"{where} sums to {total!r}")
        if abs(total - 1.0) > _EXACT_ROW_TOL:
            row = row / total
        rows[(i, config)] = row

    # Declared sizes are unbounded: allocate a table only once its rows exist.
    present = Counter(i for i, _ in rows)
    cpts = []
    for i, v in enumerate(structure.variables):
        q = structure.parent_config_count(i)
        if present[i] < q:
            first = next(c for c in range(q) if (i, c) not in rows)
            raise NetworkSyntaxError(
                var_lines[v.name],
                f"variable {v.name!r} is missing {q - present[i]} cpt row(s), "
                f"first missing config {first}",
            )
        cpts.append(np.array([rows[(i, c)] for c in range(q)]))

    net = BayesNet(structure, tuple(cpts))
    return NetworkDocument(net)


def _format_prob(p: float) -> str:
    return format(float(p), ".17g")


def serialize_network(net: BayesNet) -> str:
    """Render a network in the line format; parse(serialize(net)) == net.

    Raises ModelError for a name or state label the format cannot hold: one
    that is empty or has whitespace, or a parent's name with '='.
    """
    structure = net.structure
    out: list[str] = []
    for i, v in enumerate(structure.variables):
        for token in (v.name, *v.state_labels):
            if token.split() != [token]:
                raise ModelError(
                    f"variable {v.name!r}: {token!r} is empty or holds whitespace"
                )
        if "=" in v.name and structure.children(i):
            raise ModelError(f"variable {v.name!r}: a parent's name cannot hold '='")
        out.append(f"var {v.name} {v.arity} " + " ".join(v.state_labels))
    for i, v in enumerate(structure.variables):
        for p in structure.parents[i]:
            out.append(f"arc {structure.variables[p].name} {v.name}")
    for i, v in enumerate(structure.variables):
        ps = structure.parents[i]
        arities = [structure.variables[p].arity for p in ps]
        for config in range(structure.parent_config_count(i)):
            digits = np.unravel_index(config, arities)
            condition = " ".join(
                f"{structure.variables[p].name}={structure.variables[p].state_labels[d]}"
                for p, d in zip(ps, digits)
            )
            values = " ".join(_format_prob(x) for x in net.cpts[i][config])
            out.append(f"cpt {v.name} | {condition + ' ' if condition else ''}: {values}")
    return "\n".join(out) + "\n"


# Dataset CSVs are read and written this many rows at a time, so the
# Python objects of one block, not of the whole table, are alive at once.
_BLOCK_ROWS = 1024


def _lines(text: str):
    """Yield the lines of text, each with its line feed, split as io.StringIO
    splits them: at line feeds only, so a CRLF reaches the csv reader whole."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)  # the last may have none
        yield text[start:end]
        start = end


class _CellStates(dict):
    """One column's raw cell -> state map, filled on first sight of each cell.

    The rule: strip the cell; an empty cell is missing; a state label is
    that state; a cell of decimal digits (str.isdecimal, the digits int()
    reads) is a 0-based state index only when none of the variable's labels
    is itself one.  A cell the rule rejects maps to -1.
    """

    def __init__(self, variable: Variable):
        self.variable = variable
        self.numeric_ok = not any(lab.isdecimal() for lab in variable.state_labels)

    def __missing__(self, raw: str) -> int:
        cell = raw.strip()
        labels = self.variable.state_labels
        state = -1
        if cell and cell in labels:
            state = labels.index(cell)
        elif self.numeric_ok and cell.isdecimal():
            try:
                index = int(cell)
            except ValueError:  # more digits than int() reads
                index = self.variable.arity
            if index < self.variable.arity:
                state = index
        self[raw] = state
        return state


def _columns(header: list[str], schema: tuple[Variable, ...]) -> list[_CellStates] | None:
    """One _CellStates per header cell, or None unless the header names
    exactly the schema's variables."""
    if sorted(header) != sorted(v.name for v in schema):
        return None
    by_name = {v.name: v for v in schema}
    return [_CellStates(by_name[h]) for h in header]


def _records(lines):
    """Yield (row, cells) for the header, row 0, and for each non-blank
    record after it; a blank record is skipped but still counted.  A record
    the csv module cannot read ends them as (row, DatasetFormatError)."""
    row = -1  # the last record read
    try:
        for row, cells in enumerate(csv.reader(lines)):
            if cells or not row:
                yield row, cells
    except csv.Error as exc:
        row += 1
        yield row, DatasetFormatError(f"{f'row {row}' if row else 'header row'}: {exc}")


def _row_fault(row: int, cells, columns: list[_CellStates]) -> DatasetFormatError | None:
    """The fault of one record after the header, or None: a record the csv
    module cannot read, a row of too many cells, or the first cell of a row
    that its column rejects (a short row's missing cells are empty)."""
    if isinstance(cells, DatasetFormatError):
        return cells
    if len(cells) > len(columns):
        return DatasetFormatError(f"row {row}: {len(cells)} cells for {len(columns)} columns")
    cells = cells + [""] * (len(columns) - len(cells))
    states = list(map(_CellStates.__getitem__, columns, cells))
    if -1 not in states:
        return None
    k = states.index(-1)
    name, cell = columns[k].variable.name, cells[k].strip()
    fault = f"unknown state {cell!r}" if cell else "missing value"
    return DatasetFormatError(f"row {row}, column {name!r}: {fault}")


def _read_block(records, columns, sources, dtype) -> np.ndarray:
    """The states of the next _BLOCK_ROWS records or fewer, as a (variables,
    rows) array in schema order, with no rows past the last record.

    At the first sign of a fault (a record the csv module cannot read, a row
    of the wrong width or a cell that its column maps to -1) the block's
    records are checked one by one and the first fault in row order is
    raised.  It is in this block: the blocks before were clean, and an
    unreadable record is the last that records yields."""
    block = list(itertools.islice(records, _BLOCK_ROWS))
    rows = [cells for _, cells in block]
    if not rows:
        return np.empty((len(sources), 0), dtype)
    if not isinstance(rows[-1], DatasetFormatError) and all(
        len(cells) == len(columns) for cells in rows
    ):
        states = [
            np.fromiter(map(column.__getitem__, cells), dtype=np.int64, count=len(rows))
            for column, cells in zip(columns, zip(*rows))
        ]
        if all(s.min() >= 0 for s in states):
            return np.array([states[k] for k in sources], dtype=dtype)
    raise next(filter(None, (_row_fault(row, cells, columns) for row, cells in block)))


def parse_dataset(text: str | io.TextIOBase, schema: tuple[Variable, ...]) -> Dataset:
    """Read a dataset CSV against a known schema, _BLOCK_ROWS rows at a time.

    text is the CSV as a string or as a text file open for reading; either
    is read once, front to back.  The header must name exactly the schema's
    variables (any order; columns are reordered to match).  Cells hold state
    labels; a cell of decimal digits (str.isdecimal, the digits int() reads)
    is read as a 0-based state index only when none of that variable's
    labels is itself one.  Blank lines are skipped and cells are stripped.
    The first fault in row order, a record the csv module cannot read (such
    as a cell past its field size limit) included, raises a
    DatasetFormatError naming its row.
    """
    schema = tuple(schema)
    records = _records(_lines(text) if isinstance(text, str) else text)
    _, header = next(records, (0, None))
    if header is None:
        raise DatasetFormatError("dataset has no header row")
    if isinstance(header, DatasetFormatError):
        raise header
    columns = _columns(header, schema)
    if columns is None:
        names = [v.name for v in schema]
        raise DatasetFormatError(f"header {header!r} does not match schema variables {names!r}")
    sources = [header.index(v.name) for v in schema]
    dtype = _state_dtype(schema)
    blocks = [_read_block(records, columns, sources, dtype)]
    while blocks[-1].shape[1]:
        blocks.append(_read_block(records, columns, sources, dtype))
    cases = np.empty((sum(b.shape[1] for b in blocks), len(schema)), dtype, order="F")
    np.concatenate(blocks, axis=1, out=cases.T)
    return Dataset._adopt(schema, cases)


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
    return _csv_rows(itertools.chain([header], rows))


def _dataset_csv_blocks(data: Dataset):
    """Yield a dataset's CSV text: the header line, then _BLOCK_ROWS rows at a
    time, each state written as its label, with LF line endings."""
    labels = [np.array(v.state_labels, dtype=object) for v in data.variables]
    yield _csv_rows([[v.name for v in data.variables]])
    for start in range(0, data.n_cases, _BLOCK_ROWS):
        block = data.cases[start:start + _BLOCK_ROWS]
        yield _csv_rows(zip(*(lab[block[:, k]].tolist() for k, lab in enumerate(labels))))


def write_dataset(data: Dataset) -> str:
    """Render a dataset as CSV with state labels and LF line endings."""
    return "".join(_dataset_csv_blocks(data))


def alarm_path() -> Path:
    """Filesystem path of the bundled ALARM network file."""
    return Path(__file__).parent / "data" / "alarm.bn"


def load_alarm() -> NetworkDocument:
    """Parse the bundled ALARM monitoring network (37 variables, 46 arcs)."""
    return parse_network(alarm_path().read_text())
