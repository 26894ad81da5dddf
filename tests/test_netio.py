import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    BayesNet,
    CycleDetected,
    DagStructure,
    Dataset,
    HeaderMismatch,
    MissingCptRow,
    MissingValue,
    NetworkSyntaxError,
    RowSumNotOne,
    UnknownStateLabel,
    UnknownVariable,
    Variable,
    forward_sample,
    parse_dataset,
    parse_network,
    parse_structure,
    serialize_network,
    write_dataset,
)
from bnscore.netio import DatasetFormatError

from .helpers import traced_peak

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
        with pytest.raises(UnknownVariable):
            parse_structure(text)

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

    def test_cycle_via_arcs(self):
        text = "var X 2\nvar Y 2\narc X Y\narc Y X\n"
        with pytest.raises(CycleDetected):
            parse_structure(text)

    def test_missing_cpt_row(self):
        text = TOY.replace("cpt Y | X=x2 : 0.2 0.8\n", "")
        with pytest.raises(MissingCptRow) as exc:
            parse_network(text)
        assert "Y" in str(exc.value)
        assert exc.value.line == 3  # Y's var line

    def test_duplicate_cpt_row(self):
        text = TOY + "cpt Y | X=x2 : 0.3 0.7\n"
        with pytest.raises(NetworkSyntaxError) as exc:
            parse_network(text)
        assert "duplicate" in str(exc.value)

    def test_row_sum_far_off_rejected(self):
        text = TOY.replace("0.9 0.1", "0.4 0.1")
        with pytest.raises(RowSumNotOne) as exc:
            parse_network(text)
        assert exc.value.variable == "X"
        assert exc.value.config == 0
        assert exc.value.total == pytest.approx(0.5)

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
        with pytest.raises(HeaderMismatch):
            parse_dataset("X,Z\n1,1\n", vs)
        with pytest.raises(HeaderMismatch):
            parse_dataset("X\n1\n", vs)
        with pytest.raises(HeaderMismatch):
            parse_dataset("", vs)

    def test_numeric_cells_as_indices_when_labels_are_words(self):
        vs = (Variable("X", 3, ("lo", "mid", "hi")),)
        data = parse_dataset("X\n2\nlo\n", vs)
        assert data.cases.tolist() == [[2], [0]]
        with pytest.raises(UnknownStateLabel):
            parse_dataset("X\n3\n", vs)
        # str.isdigit accepts superscripts, which int() rejects; int() also
        # rejects more digits than sys.get_int_max_str_digits() allows
        for cell in ("²", "³", "1" * 5000):
            with pytest.raises(UnknownStateLabel):
                parse_dataset(f"X\n{cell}\n", vs)

    def test_numeric_labels_disable_index_reading(self):
        # default labels are "1".."arity", so "0" matches nothing
        vs = (Variable("X", 2),)
        assert parse_dataset("X\n1\n2\n", vs).cases.tolist() == [[0], [1]]
        with pytest.raises(UnknownStateLabel):
            parse_dataset("X\n0\n", vs)

    def test_missing_value(self):
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        with pytest.raises(MissingValue) as exc:
            parse_dataset("X,Y\na\n", vs)
        assert exc.value.row == 1
        assert exc.value.column == "Y"
        with pytest.raises(MissingValue):
            parse_dataset("X,Y\na,\n", vs)
        # past the first block
        with pytest.raises(MissingValue) as exc:
            parse_dataset("X,Y\n" + "a,c\n" * MANY + "b, \n", vs)
        assert exc.value.row == MANY + 1
        assert exc.value.column == "Y"

    @pytest.mark.parametrize(
        "body, error, row, column",
        [
            # an unknown label wins over a short row later in its block
            ("a,c\na,e\nb\n", UnknownStateLabel, 2, "Y"),
            # a short row wins over an unknown label later in its block
            ("a,c\nb\na,e\n", MissingValue, 2, "Y"),
            # the first bad cell in row order, past the first block
            ("a,c\n" * MANY + "a,d\nz,d\nb,z\n", UnknownStateLabel, MANY + 2, "X"),
            ("a,c\n" * MANY + "a,d\nb,z\nz,d\n", UnknownStateLabel, MANY + 2, "Y"),
            # blank lines count as rows
            ("\n" * MANY + "a,c\nb,z\n", UnknownStateLabel, MANY + 2, "Y"),
        ],
        ids=["label-before-short-row", "short-row-before-label", "past-first-block-x",
             "past-first-block-y", "after-blank-lines"],
    )
    def test_first_bad_cell_in_row_order_wins(self, body, error, row, column):
        vs = (Variable("X", 2, ("a", "b")), Variable("Y", 2, ("c", "d")))
        with pytest.raises(error) as exc:
            parse_dataset("X,Y\n" + body, vs)
        assert type(exc.value) is error
        assert (exc.value.row, exc.value.column) == (row, column)

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


class TestDatasetCsvMemory:
    """Dataset CSV I/O holds one block of rows as Python objects, never the
    whole table.  Peaks are tracemalloc's, so they repeat exactly."""

    def test_parse_peaks_below_three_case_arrays(self, alarm):
        data = forward_sample(alarm.net, 20000, 5)
        text = write_dataset(data)
        parsed, peak = traced_peak(parse_dataset, text, alarm.structure.variables)
        assert parsed == data
        assert peak < 3 * data.cases.nbytes

    def test_write_peaks_below_two_and_a_half_texts(self, alarm):
        data = forward_sample(alarm.net, 20000, 5)
        text, peak = traced_peak(write_dataset, data)
        assert peak < 2.5 * sys.getsizeof(text)
