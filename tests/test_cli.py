import math

import pytest

from bnscore import k2_log_score, parse_dataset, parse_network
from bnscore.cli import main
from bnscore.netio import alarm_path

PAIR_NET = """\
var X 2 x1 x2
var Y 2 y1 y2
arc X Y
cpt X | : 0.8 0.2
cpt Y | X=x1 : 0.6 0.4
cpt Y | X=x2 : 0.1 0.9
"""

PAIR_DATA = """\
X,Y
x1,y1
x1,y1
x1,y2
x2,y2
"""

CHAIN_STRUCTURE = """\
var A 2
var B 2
var C 2
arc A B
arc B C
"""

COLLIDER_NET = """\
var X 2
var Y 2
var Z 2
arc X Z
arc Y Z
cpt X | : 0.5 0.5
cpt Y | : 0.5 0.5
cpt Z | X=1 Y=1 : 0.9 0.1
cpt Z | X=1 Y=2 : 0.2 0.8
cpt Z | X=2 Y=1 : 0.3 0.7
cpt Z | X=2 Y=2 : 0.6 0.4
"""


def run(capsys, argv):
    """Invoke the CLI in-process; normalize SystemExit to a return code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pair_files(tmp_path):
    net = tmp_path / "pair.bn"
    net.write_text(PAIR_NET)
    data = tmp_path / "pair.csv"
    data.write_text(PAIR_DATA)
    return str(net), str(data)


class TestScore:
    def test_k2_output_format(self, capsys, pair_files):
        net, data = pair_files
        code, out, err = run(capsys, ["score", "--metric", "k2", "--net", net, "--data", data])
        assert code == 0
        structure = parse_network(PAIR_NET).structure
        expected = k2_log_score(structure, parse_dataset(PAIR_DATA, structure.variables))
        assert out == f"log10_score={expected / math.log(10.0):.12g}\n"

    def test_structure_file_without_cpts(self, capsys, tmp_path, pair_files):
        _, data = pair_files
        skel = tmp_path / "skel.bn"
        skel.write_text("var X 2 x1 x2\nvar Y 2 y1 y2\narc X Y\n")
        code, out, _ = run(
            capsys, ["score", "--metric", "bdeu", "--alpha0", "4", "--structure", str(skel), "--data", data]
        )
        assert code == 0
        assert out.startswith("log10_score=")

    def test_bdeu_requires_alpha0(self, capsys, pair_files):
        net, data = pair_files
        code, _, err = run(capsys, ["score", "--metric", "bdeu", "--net", net, "--data", data])
        assert code == 3
        assert "--alpha0" in err

    def test_alpha0_rejected_for_k2(self, capsys, pair_files):
        net, data = pair_files
        code, _, err = run(
            capsys, ["score", "--metric", "k2", "--alpha0", "1", "--net", net, "--data", data]
        )
        assert code == 3

    def test_gu_rejects_non_clique_structure(self, capsys, tmp_path):
        skel = tmp_path / "chain.bn"
        skel.write_text(CHAIN_STRUCTURE)
        data = tmp_path / "chain.csv"
        data.write_text("A,B,C\n1,1,1\n2,2,2\n")
        code, _, err = run(
            capsys, ["score", "--metric", "gu", "--structure", str(skel), "--data", str(data)]
        )
        assert code == 3
        assert "A" in err and "C" in err

    def test_missing_file_is_a_parse_failure(self, capsys, tmp_path, pair_files):
        _, data = pair_files
        code, _, err = run(
            capsys, ["score", "--metric", "k2", "--net", str(tmp_path / "no.bn"), "--data", data]
        )
        assert code == 2

    def test_malformed_network(self, capsys, tmp_path, pair_files):
        _, data = pair_files
        bad = tmp_path / "bad.bn"
        bad.write_text("var X 1\n")
        code, _, err = run(capsys, ["score", "--metric", "k2", "--net", str(bad), "--data", data])
        assert code == 2

    @pytest.mark.parametrize("alpha0", ["inf", "1e-320", "1e308"])
    def test_alpha0_out_of_float_range(self, capsys, pair_files, alpha0):
        net, data = pair_files
        code, out, err = run(
            capsys,
            ["score", "--metric", "bdeu", "--alpha0", alpha0, "--net", net, "--data", data],
        )
        assert code == 3
        assert out == ""
        assert "alpha0" in err and "Traceback" not in err
        assert "RuntimeWarning" not in err

    def test_net_and_structure_mutually_exclusive(self, capsys, pair_files):
        net, data = pair_files
        code, _, _ = run(
            capsys,
            ["score", "--metric", "k2", "--net", net, "--structure", net, "--data", data],
        )
        assert code == 3


class TestBench:
    def test_stdout_csv_with_stderr_summary(self, capsys):
        code, out, err = run(capsys, ["bench", "--example", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "example,metric,alpha0,n,ratio,log10_ratio"
        assert len(lines) == 1 + 15  # (3 alpha0 + k2 + gu) x 3 sizes
        assert "example 1 k2 n=10: ratio=1" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, out, err = run(capsys, ["bench", "--example", "2", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("example,metric,alpha0,n,ratio,log10_ratio\n")
        assert "example 2" in out  # summary goes to stdout when csv goes to a file
        assert err == ""

    def test_reruns_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["bench", "--example", "10", "--out", str(a)])
        run(capsys, ["bench", "--example", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_rows_kept_out_of_summary(self, capsys, tmp_path):
        out_path = tmp_path / "e11.csv"
        code, out, _ = run(capsys, ["bench", "--example", "11", "--out", str(out_path)])
        assert code == 0
        assert "bdeu_sweep" in out_path.read_text()
        assert "bdeu_sweep" not in out
        assert "bdeu_max" in out

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, ["bench", "--example", "12"])
        assert code == 3
        assert "unknown example" in err


class TestSample:
    def test_writes_labelled_csv(self, capsys, tmp_path, pair_files):
        net, _ = pair_files
        out_path = tmp_path / "sample.csv"
        code, out, _ = run(capsys, ["sample", "--net", net, "--n", "50", "--out", str(out_path)])
        assert code == 0
        assert "wrote 50 cases" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "X,Y"
        assert len(lines) == 51
        assert set("".join(lines[1:]).replace(",", "")) <= set("xy12")

    def test_n_zero_gives_header_only(self, capsys, tmp_path, pair_files):
        net, _ = pair_files
        out_path = tmp_path / "empty.csv"
        code, _, _ = run(capsys, ["sample", "--net", net, "--n", "0", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == "X,Y\n"

    def test_negative_seed(self, capsys, tmp_path, pair_files):
        net, _ = pair_files
        out_path = tmp_path / "s.csv"
        code, _, err = run(
            capsys, ["sample", "--net", net, "--n", "5", "--seed", "-3", "--out", str(out_path)]
        )
        assert code == 3
        assert "--seed" in err and "Traceback" not in err
        assert not out_path.exists()

    def test_seed_defaults_and_repeats(self, capsys, tmp_path, pair_files):
        net, _ = pair_files
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        run(capsys, ["sample", "--net", net, "--n", "30", "--out", str(a)])
        run(capsys, ["sample", "--net", net, "--n", "30", "--seed", "42", "--out", str(b)])
        run(capsys, ["sample", "--net", net, "--n", "30", "--seed", "7", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestDsep:
    def test_collider_pair_marginally_separated(self, capsys, tmp_path):
        net = tmp_path / "collider.bn"
        net.write_text(COLLIDER_NET)
        code, out, _ = run(capsys, ["dsep", "--net", str(net), "--x", "X", "--y", "Y"])
        assert code == 0
        assert out == "d-separated=true\n"

    def test_conditioning_on_collider_connects(self, capsys, tmp_path):
        net = tmp_path / "collider.bn"
        net.write_text(COLLIDER_NET)
        code, out, _ = run(
            capsys, ["dsep", "--net", str(net), "--x", "X", "--y", "Y", "--given", "Z"]
        )
        assert code == 0
        assert out == "d-separated=false\n"

    def test_marginal_pair_count_on_bundled_network(self, capsys):
        code, out, _ = run(
            capsys, ["dsep", "--net", str(alarm_path()), "--count-marginal"]
        )
        assert code == 0
        assert out == "marginally_d_separated_pairs=365\n"

    def test_unknown_variable_name(self, capsys, tmp_path):
        net = tmp_path / "collider.bn"
        net.write_text(COLLIDER_NET)
        code, _, err = run(capsys, ["dsep", "--net", str(net), "--x", "X", "--y", "W"])
        assert code == 3
        assert "W" in err

    def test_x_and_y_required_without_count_flag(self, capsys, tmp_path):
        net = tmp_path / "collider.bn"
        net.write_text(COLLIDER_NET)
        code, _, err = run(capsys, ["dsep", "--net", str(net), "--x", "X"])
        assert code == 3


class TestRoc:
    ARGS = ["roc", "--sizes", "5,10", "--reps", "3", "--metrics", "bdeu4,gu", "--seed", "7"]

    def test_small_run_writes_both_csvs(self, capsys, tmp_path):
        out_dir = tmp_path / "roc"
        code, out, _ = run(capsys, [*self.ARGS, "--jobs", "1", "--out", str(out_dir)])
        assert code == 0
        auc_lines = (out_dir / "auc_summary.csv").read_text().splitlines()
        roc_lines = (out_dir / "mean_roc.csv").read_text().splitlines()
        assert auc_lines[0] == "metric,alpha0,n,mean_auc,ci_low,ci_high,reps"
        assert len(auc_lines) == 1 + 2 * 2
        assert roc_lines[0] == "metric,n,fpr,tpr"
        assert len(roc_lines) == 1 + 2 * 2 * 47
        assert "bdeu alpha0=4 n=5: mean_auc=" in out

    def test_reruns_byte_identical_across_job_counts(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(capsys, [*self.ARGS, "--jobs", "1", "--out", str(d1)])
        run(capsys, [*self.ARGS, "--jobs", "2", "--out", str(d2)])
        for name in ("auc_summary.csv", "mean_roc.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_bad_metric_token(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["roc", "--metrics", "bdeuX", "--out", str(tmp_path / "x")],
        )
        assert code == 3
        assert "bad metric token" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--metrics", "bdeuinf"],
            ["--sizes", "abc"],
            ["--sizes", "5,0"],
            ["--seed", "-1"],
            ["--sizes", "5", "--reps", "2", "--metrics", "bdeu1e-320", "--jobs", "1"],
        ],
    )
    def test_invalid_input_is_a_usage_error(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "x"
        code, out, err = run(capsys, ["roc", *argv, "--out", str(out_dir)])
        assert code == 3
        assert "nan" not in out and "Traceback" not in err
        assert not (out_dir / "auc_summary.csv").exists()


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 3
