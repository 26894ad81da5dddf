import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    BayesNet,
    DagStructure,
    Dataset,
    ModelError,
    NetworkSyntaxError,
    Variable,
    forward_sample,
    parse_dataset,
    parse_network,
    parse_structure,
    serialize_network,
    write_dataset,
)
from bnscore import netio
from bnscore.cli import main
from bnscore.netio import DatasetFormatError

from .helpers import traced_peak
from .oracles import parse_dataset_reference

TOY = """\
# two binary variables with one arc
var X 2 x1 x2
var Y 2 y1 y2
arc X Y
cpt X | : 0.9 0.1
cpt Y | X=x1 : 0.5 0.5
cpt Y | X=x2 : 0.2 0.8
"""


class TestParseNetwork:
    def test_toy_network(self):
        doc = parse_network(TOY)
        s = doc.structure
        assert [v.name for v in s.variables] == ["X", "Y"]
        assert s.parents == ((), (0,))
        np.testing.assert_allclose(doc.net.cpts[0], [[0.9, 0.1]])
        np.testing.assert_allclose(doc.net.cpts[1], [[0.5, 0.5], [0.2, 0.8]])

    def test_condition_order_is_free(self):
        text = (
            "var A 2\nvar B 2\nvar C 2\n"
            "arc A C\narc B C\n"
            "cpt A | : 0.5 0.5\ncpt B | : 0.5 0.5\n"
            "cpt C | B=1 A=2 : 0.25 0.75\n"
            "cpt C | A=1 B=1 : 0.5 0.5\n"
            "cpt C | A=1 B=2 : 0.5 0.5\n"
            "cpt C | A=2 B=2 : 0.5 0.5\n"
        )
        doc = parse_network(text)
        # A=2, B=1 is config index 1*2+0 = 2
        np.testing.assert_allclose(doc.net.cpts[2][2], [0.25, 0.75])

    def test_arc_before_declaration_rejected(self):
        text = "var X 2\narc X Y\nvar Y 2\n"
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_structure(text)
        assert str(exc.value) == "line 2: arc names undeclared variable 'Y'"

    def test_unknown_directive(self):
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_structure("var X 2\nnode Y 2\n")
        assert exc.value.line == 2

    def test_duplicate_var(self):
        with pytest.raises(NetworkSyntaxError):
            parse_structure("var X 2\nvar X 2\n")

    def test_label_count_mismatch(self):
        with pytest.raises(NetworkSyntaxError):
            parse_structure("var X 3 a b\n")

    def test_label_count_names_line_and_variable(self):
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_structure("var X 2\nvar A 2 x y z\n")
        assert str(exc.value) == "line 2: variable 'A': 3 state labels for arity 2"
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, error, line, words",
        [
            ("var A\n", NetworkSyntaxError, 1, "needs a name and an arity"),
            ("var A two\n", NetworkSyntaxError, 1, "arity must be an integer"),
            ("var A 2\narc A\n", NetworkSyntaxError, 2, "exactly two names"),
            ("var A 2\nvar B 2\narc A B\narc A B\n", NetworkSyntaxError, 4, "duplicate arc"),
            ("var A 2\ncpt\n", NetworkSyntaxError, 2, "needs a variable name"),
            ("var A 2\ncpt B | : 0.5 0.5\n", NetworkSyntaxError, 2, "undeclared variable 'B'"),
            ("var A 2\ncpt A : 0.5 0.5\n", NetworkSyntaxError, 2, "must read"),
            ("var A 2\nvar B 2\narc A B\ncpt A | : 0.5 0.5\ncpt B | A1 : 0.5 0.5\n",
             NetworkSyntaxError, 5, "is not NAME=label"),
            ("var A 2\nvar B 2\narc A B\ncpt A | : 0.5 0.5\ncpt B | C=1 : 0.5 0.5\n",
             NetworkSyntaxError, 5, "undeclared variable 'C'"),
            ("var A 2\nvar B 2\narc A B\ncpt A | : 0.5 0.5\ncpt B | A=1 A=2 : 0.5 0.5\n",
             NetworkSyntaxError, 5, "assigned twice"),
            ("var A 2\nvar B 2\narc A B\ncpt A | : 0.5 0.5\ncpt B | : 0.5 0.5\n",
             NetworkSyntaxError, 5, "leaves A unassigned"),
            ("var A 2\ncpt A | : 0.25 0.25 0.5\n", NetworkSyntaxError, 2, "3 probabilities"),
        ],
        ids=["var-no-arity", "var-word-arity", "arc-one-name", "arc-repeated", "cpt-bare",
             "cpt-undeclared", "cpt-no-bar", "condition-no-equals", "condition-undeclared",
             "parent-twice", "parent-unassigned", "probability-count"],
    )
    def test_bad_line_is_named(self, capsys, tmp_path, text, error, line, words):
        with pytest.raises(error) as exc:
            parse_network(text)
        assert type(exc.value) is error
        assert exc.value.line == line
        assert words in exc.value.message
        path = tmp_path / "net.bn"
        path.write_text(text)
        assert main(["dsep", "--net", str(path), "--count-marginal"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc.value}\n"
        assert captured.err.startswith(f"error: line {line}: ")

    @pytest.mark.bounded
    def test_cycle_via_arcs(self):
        text = "var X 2\nvar Y 2\narc X Y\narc Y X\n"
        with pytest.raises(ModelError, match="^cycle detected: X -> Y -> X$"):
            parse_structure(text)

    def test_missing_cpt_row(self):
        text = TOY.replace("cpt Y | X=x2 : 0.2 0.8\n", "")
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text)
        assert str(exc.value) == (
            "line 3: variable 'Y' is missing 1 cpt row(s), first missing config 1"
        )
        assert exc.value.line == 3  # Y's var line

    @pytest.mark.parametrize("k", [63, 64])
    def test_parent_configs_past_int64(self, k):
        # From 2**63 parent configurations on, numpy cannot index C's rows.
        roots = range(1, k + 1)
        text = (
            "".join(f"var P{i} 2\n" for i in roots) + "var C 2\n"
            + "".join(f"arc P{i} C\n" for i in roots)
            + "".join(f"cpt P{i} | : 0.5 0.5\n" for i in roots)
        )
        # P1=2 and every other parent 1: the first parent is most significant.
        row = "cpt C |" + "".join(f" P{i}={1 + (i == 1)}" for i in roots) + " : 0.5 0.5\n"
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text + row)
        assert str(exc.value) == (
            f"line {k + 1}: variable 'C' is missing {2**k - 1} cpt row(s), first missing config 0"
        )
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text + row + row)
        assert str(exc.value).endswith(f"duplicate cpt row for 'C' (config {2**(k - 1)})")

    def test_duplicate_cpt_row(self):
        text = TOY + "cpt Y | X=x2 : 0.3 0.7\n"
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text)
        assert "duplicate" in str(exc.value)

    def test_row_sum_far_off_rejected(self):
        text = TOY.replace("0.9 0.1", "0.4 0.1")
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text)
        assert str(exc.value) == "line 5: cpt row for 'X' (config 0) sums to 0.5"
        assert exc.value.line == 5

    def test_small_drift_renormalised(self):
        text = TOY.replace("0.5 0.5", "0.5000000001 0.5")
        doc = parse_network(text)
        assert doc.net.cpts[1][0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_tiny_drift_keeps_bits(self):
        # a third split intentionally sums to 1 - 2**-53; bits must survive
        third = 1.0 / 3.0
        text = (
            "var X 3\n"
            f"cpt X | : {third!r} {third!r} {third!r}\n"
        )
        doc = parse_network(text)
        assert doc.net.cpts[0][0].tolist() == [third, third, third]

    def test_probability_out_of_range(self):
        with pytest.raises(NetworkSyntaxError):
            parse_network("var X 2\ncpt X | : 1.5 -0.5\n")

    def test_bad_probability_token(self):
        with pytest.raises(NetworkSyntaxError):
            parse_network("var X 2\ncpt X | : half half\n")

    def test_condition_must_name_parents_only(self):
        text = "var X 2\nvar Y 2\ncpt X | : 0.5 0.5\ncpt Y | X=1 : 0.5 0.5\n"
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text)
        assert "not a parent" in str(exc.value)

    def test_condition_unknown_state_label(self):
        text = TOY.replace("X=x1", "X=zz")
        with pytest.raises(NetworkSyntaxError):
            parse_network(text)

    def test_missing_colon(self):
        with pytest.raises(NetworkSyntaxError):
            parse_network("var X 2\ncpt X | 0.5 0.5\n")

    def test_empty_file(self):
        with pytest.raises(NetworkSyntaxError):
            parse_network("# nothing here\n")

    def test_parse_structure_ignores_cpt_lines(self):
        s = parse_structure(TOY)
        assert s.parents == ((), (0,))
        # and works when cpt lines are absent entirely
        s2 = parse_structure("var X 2 x1 x2\nvar Y 2 y1 y2\narc X Y\n")
        assert s == s2


class TestSerializeNetwork:
    def test_round_trip_toy(self):
        doc = parse_network(TOY)
        again = parse_network(serialize_network(doc.net))
        assert again.net == doc.net

    def test_round_trip_alarm(self, alarm):
        again = parse_network(serialize_network(alarm.net))
        assert again.net == alarm.net

    def test_serialize_is_fixed_point(self, alarm):
        once = serialize_network(alarm.net)
        twice = serialize_network(parse_network(once).net)
        assert once == twice

    def test_seventeen_digit_probabilities(self):
        vs = (Variable("X", 2),)
        net = BayesNet(
            DagStructure(vs, ((),)), (np.array([[1.0 / 3.0, 2.0 / 3.0]]),)
        )
        text = serialize_network(net)
        assert "0.33333333333333331" in text
        assert parse_network(text).net == net

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_cpts(self, raw):
        rng = np.random.default_rng(sum(raw) + len(raw))
        vs = (Variable("A", 2), Variable("B", 3))
        s = DagStructure(vs, ((), (0,)))
        cpt_a = rng.dirichlet((1.0, 1.0)).reshape(1, 2)
        cpt_b = rng.dirichlet((1.0, 1.0, 1.0), size=2)
        net = BayesNet(s, (cpt_a, cpt_b))
        assert parse_network(serialize_network(net)).net == net


# More rows than two blocks of the dataset reader and writer.
MANY = 2500

# A row whose quoted cell is past the csv module's field size limit.
UNREADABLE = 'a,"' + "c" * 200_000 + '"\n'


class TestDatasetCsv:
    def test_write_then_parse_round_trip(self):
        vs = (Variable("X", 2, ("x1", "x2")), Variable("Y", 2, ("y1", "y2")))
        data = Dataset(vs, [(0, 1), (1, 0), (0, 0)])
        assert parse_dataset(write_dataset(data), vs) == data

    def test_labels_written(self):
        vs = (Variable("X", 2, ("no", "yes")),)
        text = write_dataset(Dataset(vs, [(1,), (0,)]))
        assert text == "X\nyes\nno\n"

    def test_labels_with_commas_and_quotes_are_quoted(self):
        vs = (Variable("X", 2, ("a,b", 'q"x')), Variable("Y", 2, ("c", "d")))
        data = Dataset(vs, [(0, 1), (1, 0)])
        text = write_dataset(data)
        assert text == 'X,Y\n"a,b",d\n"q""x",c\n'
        assert parse_dataset(text, vs) == data
        # A quoted newline takes two lines, over several blocks.
        vs = (Variable("X", 2, ("a,b", "n\nl")), Variable("Y", 2, ("c", "d")))
        data = Dataset(vs, [(0, 1), (1, 0)] * MANY)
        text = write_dataset(data)
        assert text == "X,Y\n" + '"a,b",d\n"n\nl",c\n' * MANY
        assert parse_dataset(text, vs) == data

    def test_header_reordered_to_schema(self):
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        data = parse_dataset("Y,X\nc,b\nd,a\n", vs)
        assert data.variables == vs
        assert data.cases.tolist() == [[1, 0], [0, 1]]
        # CRLF line ends, blank lines, no final line end, quoted and padded
        # cells, and the same over several blocks, read alike.
        for text, reps in [
            ("Y,X\r\nc,b\r\nd,a\r\n", 1),
            ("Y,X\n\nc,b\n\n\nd,a", 1),
            ('Y,X\n"c", b \n d ,"a"\n', 1),
            ("Y,X\n" + "c,b\nd,a\n" * MANY, MANY),
            ("Y,X\r\n" + "c,b\r\n\r\nd,a\r\n" * MANY, MANY),
        ]:
            data = parse_dataset(text, vs)
            assert data.variables == vs
            assert data.cases.tolist() == [[1, 0], [0, 1]] * reps, text[:20]
            assert data.cases.flags.f_contiguous

    def test_header_mismatch(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        with pytest.raises(DatasetFormatError) as exc:
            parse_dataset("X,Z\n1,1\n", vs)
        assert str(exc.value) == "header ['X', 'Z'] does not match schema variables ['X', 'Y']"
        with pytest.raises(DatasetFormatError) as exc:
            parse_dataset("X\n1\n", vs)
        assert str(exc.value) == "header ['X'] does not match schema variables ['X', 'Y']"
        with pytest.raises(DatasetFormatError, match="^dataset has no header row$"):
            parse_dataset("", vs)

    def test_numeric_cells_as_indices_when_labels_are_words(self):
        vs = (Variable("X", 3, ("lo", "mid", "hi")),)
        data = parse_dataset("X\n2\nlo\n", vs)
        assert data.cases.tolist() == [[2], [0]]
        with pytest.raises(DatasetFormatError, match="^row 1, column 'X': unknown state '3'$"):
            parse_dataset("X\n3\n", vs)
        # str.isdigit accepts superscripts, which int() rejects; int() also
        # rejects more digits than sys.get_int_max_str_digits() allows
        for cell in ("²", "³", "1" * 5000):
            with pytest.raises(DatasetFormatError) as exc:
                parse_dataset(f"X\n{cell}\n", vs)
            assert str(exc.value) == f"row 1, column 'X': unknown state '{cell}'"

    @pytest.mark.parametrize("cell", ["-1", "4", "256", "260"])
    def test_state_index_out_of_range_is_an_unknown_state(self, cell):
        """A cell read as a state index outside 0..arity-1 is rejected with
        the cell as written, whatever it would wrap to in the uint8 cases."""
        vs = (Variable("X", 4, ("lo", "mid", "hi", "max")),)
        with pytest.raises(DatasetFormatError, match=rf"^row 2, column 'X': unknown state '{cell}'$"):
            parse_dataset(f"X\nlo\n{cell}\n", vs)

    @pytest.mark.parametrize(
        "text, where",
        [
            ('"' + "X" * 200_000 + '",Y\na,c\n', "header row"),
            ('X,Y\na,c\n"' + "a" * 200_000 + '",c\n', "row 2"),
            ("X,Y\n" + "a,c\n" * MANY + 'b,"' + "c" * 200_000 + '"\n', f"row {MANY + 1}"),
        ],
        ids=["header", "data-row", "past-first-block"],
    )
    def test_cell_past_the_csv_field_limit_names_its_row(self, text, where):
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        with pytest.raises(DatasetFormatError, match=f"^{where}: field larger than field limit") as exc:
            parse_dataset(text, vs)
        assert type(exc.value) is DatasetFormatError

    def test_numeric_labels_disable_index_reading(self):
        # default labels are "1".."arity", so "0" matches nothing
        vs = (Variable("X", 2),)
        assert parse_dataset("X\n1\n2\n", vs).cases.tolist() == [[0], [1]]
        with pytest.raises(DatasetFormatError, match="^row 1, column 'X': unknown state '0'$"):
            parse_dataset("X\n0\n", vs)

    def test_missing_value(self):
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        with pytest.raises(DatasetFormatError, match="^row 1, column 'Y': missing value$"):
            parse_dataset("X,Y\na\n", vs)
        with pytest.raises(DatasetFormatError, match="^row 1, column 'Y': missing value$"):
            parse_dataset("X,Y\na,\n", vs)
        # past the first block
        with pytest.raises(DatasetFormatError) as exc:
            parse_dataset("X,Y\n" + "a,c\n" * MANY + "b, \n", vs)
        assert str(exc.value) == f"row {MANY + 1}, column 'Y': missing value"

    @pytest.mark.parametrize(
        "body, message",
        [
            # an unknown label wins over a short row later in its block
            ("a,c\na,e\nb\n", "row 2, column 'Y': unknown state 'e'"),
            # a short row wins over an unknown label later in its block
            ("a,c\nb\na,e\n", "row 2, column 'Y': missing value"),
            # the first bad cell in row order, past the first block
            ("a,c\n" * MANY + "a,d\nz,d\nb,z\n", f"row {MANY + 2}, column 'X': unknown state 'z'"),
            ("a,c\n" * MANY + "a,d\nb,z\nz,d\n", f"row {MANY + 2}, column 'Y': unknown state 'z'"),
            # blank lines count as rows
            ("\n" * MANY + "a,c\nb,z\n", f"row {MANY + 2}, column 'Y': unknown state 'z'"),
            # a bad row wins over a record the csv module cannot read later
            ("a,z\n" + UNREADABLE, "row 1, column 'Y': unknown state 'z'"),
            ("a\n" + UNREADABLE, "row 1, column 'Y': missing value"),
            ("a,c,d\n" + UNREADABLE, "row 1: 3 cells for 2 columns"),
        ],
        ids=["label-before-short-row", "short-row-before-label", "past-first-block-x",
             "past-first-block-y", "after-blank-lines", "label-before-unreadable",
             "short-row-before-unreadable", "long-row-before-unreadable"],
    )
    def test_first_bad_cell_in_row_order_wins(self, body, message):
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        with pytest.raises(DatasetFormatError) as exc:
            parse_dataset("X,Y\n" + body, vs)
        assert str(exc.value) == message

    # Cells of a faulty CSV: labels padded or quoted, a label holding a line
    # feed, an unknown label, an empty cell, and <long>, a cell past the csv
    # module's field size limit of 131,072 characters, quoted or not.
    CELLS = ["a", "a", "b", " b ", '"a"', "c", "c", "d", '"e\nf"', "z", "", '"<long>"', "<long>"]

    @given(
        header=st.sampled_from(["X,Y", "Y,X"]),
        rows=st.lists(st.lists(st.sampled_from(CELLS), max_size=3), max_size=8),
        end=st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_outcome_does_not_depend_on_the_block_size(self, header, rows, end):
        """Blank lines, short and long rows, bad labels and unreadable cells
        give the same Dataset or the same error at any block size."""
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 3, ("c", "d", "e\nf")))
        text = end.join([header, *(",".join(cells) for cells in rows)]) + end
        text = text.replace("<long>", "c" * 131_073)

        def outcome():
            try:
                return parse_dataset(text, vs)
            except DatasetFormatError as exc:
                return type(exc), str(exc)

        outcomes = []
        for size in (1, 2, 3, 1024):
            with mock.patch.object(netio, "_BLOCK_ROWS", size):
                outcomes.append(outcome())
        assert all(o == outcomes[0] for o in outcomes)
        # ... and the outcome of a reader that takes one record at a time.
        got = outcomes[0]
        got = got.cases.tolist() if isinstance(got, Dataset) else (got[0].__name__, got[1])
        assert got == parse_dataset_reference(text, vs)

    def test_a_faulty_text_is_read_once(self):
        """The block that shows a fault names it from the rows it holds: one
        csv reader per parse, however far into the text the fault lies."""
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        readers = []

        def counting_reader(*args, **kwargs):
            readers.append(args)
            return csv_reader(*args, **kwargs)

        csv_reader = netio.csv.reader
        with mock.patch.object(netio.csv, "reader", counting_reader):
            with pytest.raises(DatasetFormatError, match="^row 3001, column 'Y': unknown state 'z'$"):
                parse_dataset("X,Y\n" + "a,c\n" * 3000 + "b,z\n", vs)
        assert len(readers) == 1

    def test_overlong_row(self):
        vs = (Variable("X", 2, ("a", "b")),)
        with pytest.raises(DatasetFormatError):
            parse_dataset("X\na,b\n", vs)
        with pytest.raises(DatasetFormatError, match=f"^row {MANY + 1}: 2 cells for 1 columns$"):
            parse_dataset("X\n" + "a\n" * MANY + "a,b\nc\n", vs)

    def test_header_only_round_trip(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        empty = Dataset(vs, [])
        text = write_dataset(empty)
        assert text == "X,Y\n"
        assert parse_dataset(text, vs) == empty

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_datasets(self, seed):
        rng = np.random.default_rng(seed)
        vs = (
            Variable("A", 2, ("t", "f")),
            Variable("B", 3),
            Variable("C", 4, ("w", "x", "y", "z")),
        )
        cases = np.column_stack(
            [rng.integers(0, v.arity, 40) for v in vs]
        )
        data = Dataset(vs, cases)
        assert parse_dataset(write_dataset(data), vs) == data


class TestDatasetFile:
    """parse_dataset of an open text file, streamed, gives what it gives for
    the file's text as Path.read_text returns it: both read with universal
    newlines, so CRLF and a lone CR end a line as LF does."""

    VARIABLES = (Variable("X", 2, ("a", "b")), Variable("Y", 3, ("c", "d", "e\nf")))

    # A CRLF whose CR is the last character of TextIOWrapper's first
    # 8,192-character chunk and whose LF starts the second.
    STRADDLE = "X,Y\r\n" + "a,c\r\n" * 1636 + "b,  d \r\n" + "b,c\r\n" * 3

    @pytest.mark.parametrize(
        "text",
        [
            "X,Y\r\na,c\r\nb,d\r\n",
            "X,Y\ra,c\rb,d\r",
            "X,Y\r\na,c\nb,d\rb,c\r\na,d",
            'X,Y\na,"e\nf"\nb,c\n',
            'X,Y\r\na,"e\r\nf"\r\nb,c\r\n',
            "X,Y\n\na,c\n\n\nb,d\n",
            "X,Y\na,c\nb,d",
            STRADDLE,
            "Y,X\r\n" + "c,a\r\n" * 3000 + "\r\rz,b\r\n",
            'X,Y\ra,c\rb,"e\rg"\r',
            "X,Y\r\na\r\n",
        ],
        ids=["crlf", "lone-cr", "mixed", "quoted-lf", "quoted-crlf", "blank-lines",
             "no-final-lf", "crlf-straddles-chunk", "fault-after-lone-crs",
             "unknown-quoted-cr", "short-row"],
    )
    def test_file_reads_as_its_text(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        if text is self.STRADDLE:
            assert text[8191:8193] == "\r\n"

        def outcome(source):
            try:
                return parse_dataset(source, self.VARIABLES)
            except DatasetFormatError as exc:
                return type(exc), str(exc)

        with open(path) as lines:
            streamed = outcome(lines)
        assert streamed == outcome(path.read_text())


class TestDatasetCsvMemory:
    """Dataset CSV I/O holds one block of rows as Python objects, never the
    whole table.  Peaks are tracemalloc's, so they repeat exactly."""

    def test_parse_peaks_below_three_case_arrays(self, alarm):
        data = forward_sample(alarm.net, 20000, 5)
        text = write_dataset(data)
        parsed, peak = traced_peak(parse_dataset, text, alarm.structure.variables)
        assert parsed == data
        assert peak < 3 * 8 * data.cases.size  # three int64 case arrays
        # The uint8 cases and one block's Python objects: 4.9 bytes a cell,
        # where int64 cases took 11.9.
        assert peak < 6 * data.cases.size

    def test_write_peaks_below_two_and_a_half_texts(self, alarm):
        data = forward_sample(alarm.net, 20000, 5)
        text, peak = traced_peak(write_dataset, data)
        assert peak < 2.5 * sys.getsizeof(text)
