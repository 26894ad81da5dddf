import gc
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from bnscore import (
    MetricSpec,
    cli,
    forward_sample,
    log_score,
    parse_dataset,
    parse_network,
    rocstats,
    write_dataset,
)
from bnscore.cli import _build_parser, main
from bnscore.netio import alarm_path

from .helpers import traced_peak

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


WIDE_NET = """\
var A 10000
var B 10000
var C 10000
arc A C
arc B C
"""


# Nine roots B1..B9 of 4097 states and the arc P -> Q: 54 marginally
# d-separated pairs, 36 of two roots, so every draw of 46 negatives holds a
# pair whose table has 4097**2 = 16785409 cells, past the 2**24 cap.
WIDE_PAIR_NET = (
    "".join(f"var B{i} 4097\n" for i in range(1, 10))
    + "var P 2\nvar Q 2\narc P Q\n"
    + "".join(f"cpt B{i} | : 1{' 0' * 4096}\n" for i in range(1, 10))
    + "cpt P | : 0.5 0.5\ncpt Q | P=1 : 0.9 0.1\ncpt Q | P=2 : 0.2 0.8\n"
)


# 64 binary roots P1..P64, all parents of C, and one cpt row of C: its
# 2**64 parent configurations are past numpy's index range.
MANY_PARENT_NET = (
    "".join(f"var P{i} 2\n" for i in range(1, 65)) + "var C 2\n"
    + "".join(f"arc P{i} C\n" for i in range(1, 65))
    + "".join(f"cpt P{i} | : 0.5 0.5\n" for i in range(1, 65))
    + "cpt C |" + "".join(f" P{i}=1" for i in range(1, 65)) + " : 0.5 0.5\n"
)
MANY_PARENT_FAULT = (
    "line 65: variable 'C' is missing 18446744073709551615 cpt row(s), first missing config 1"
)


USAGE = {
    "score": "usage: bnscore score [-h] --metric {k2,bdeu,gu} [--alpha0 ALPHA0] --data DATA "
             "(--net NET | --structure STRUCTURE)",
    "bench": "usage: bnscore bench [-h] --example {1,2,3,4,5,6,7,8,9,10,11} [--out OUT]",
    "dsep": "usage: bnscore dsep [-h] --net NET [--x X] [--y Y] [--given GIVEN] "
            "[--count-marginal]",
}


def usage_fault(command, message):
    """The stderr of a usage fault in a subcommand: its usage line, then the message."""
    return f"{USAGE[command]}\nbnscore {command}: error: {message}\n"


@pytest.fixture
def wide_terminal(monkeypatch):
    """argparse wraps a usage line at $COLUMNS; at 200 every USAGE line is one line."""
    monkeypatch.setenv("COLUMNS", "200")


def run_in_1gib(argv, cwd=None):
    """Run the CLI in a child limited to a 1 GiB address space."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "bnscore.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, preexec_fn=limit_address_space,
    )


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
        data = parse_dataset(PAIR_DATA, structure.variables)
        expected = log_score(MetricSpec.k2(), structure, data)
        assert out == f"log10_score={expected / math.log(10.0):.12g}\n"

    def test_streams_its_data_file(self, capsys, tmp_path, alarm):
        # The file is read a block at a time, never held whole as bytes or
        # text: the command's peak stays below the file's size.
        data = forward_sample(alarm.net, 20000, 5)
        path = tmp_path / "cases.csv"
        path.write_text(write_dataset(data))
        argv = ["score", "--metric", "k2", "--net", str(alarm_path()), "--data", str(path)]
        (code, out, _), peak = traced_peak(run, capsys, argv)
        assert code == 0
        expected = log_score(MetricSpec.k2(), alarm.structure, data) / math.log(10.0)
        assert out == f"log10_score={expected:.12g}\n"
        assert peak < path.stat().st_size

    def test_structure_file_without_cpts(self, capsys, tmp_path, pair_files):
        _, data = pair_files
        skel = tmp_path / "skel.bn"
        skel.write_text("var X 2 x1 x2\nvar Y 2 y1 y2\narc X Y\n")
        code, out, _ = run(
            capsys, ["score", "--metric", "bdeu", "--alpha0", "4", "--structure", str(skel), "--data", data]
        )
        assert code == 0
        assert out.startswith("log10_score=")

    # Every metric fault is MetricSpec's message, reported as a usage fault.
    def test_bdeu_requires_alpha0(self, capsys, pair_files, wide_terminal):
        net, data = pair_files
        code, out, err = run(capsys, ["score", "--metric", "bdeu", "--net", net, "--data", data])
        assert (code, out) == (3, "")
        assert err == usage_fault("score", "BDeu requires alpha0")

    def test_alpha0_rejected_for_k2(self, capsys, pair_files, wide_terminal):
        net, data = pair_files
        code, out, err = run(
            capsys, ["score", "--metric", "k2", "--alpha0", "1", "--net", net, "--data", data]
        )
        assert (code, out) == (3, "")
        assert err == usage_fault("score", "k2 does not take alpha0")

    def test_negative_alpha0_is_a_usage_fault(self, capsys, pair_files, wide_terminal):
        net, data = pair_files
        code, out, err = run(
            capsys, ["score", "--metric", "bdeu", "--alpha0", "-1", "--net", net, "--data", data]
        )
        assert (code, out) == (3, "")
        assert err == usage_fault("score", "alpha0 must be positive and finite, got -1.0")

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

    def test_unknown_example(self, capsys, wide_terminal):
        code, out, err = run(capsys, ["bench", "--example", "12"])
        assert (code, out) == (3, "")
        assert err == usage_fault(
            "bench",
            "argument --example: invalid choice: 12 "
            "(choose from 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)",
        )


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

    def test_writes_csv_block_by_block(self, capsys, tmp_path, alarm):
        # The file is write_dataset's text, yet never held whole: beside the
        # cases, the command's peak stays below the file's size.
        out_path = tmp_path / "s.csv"
        argv = ["sample", "--net", str(alarm_path()), "--n", "20000", "--seed", "5",
                "--out", str(out_path)]
        (code, _, _), peak = traced_peak(run, capsys, argv)
        assert code == 0
        data = forward_sample(alarm.net, 20000, 5)
        assert out_path.read_text() == write_dataset(data)
        assert peak - data.cases.nbytes < out_path.stat().st_size

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


# Queries run d_separated's frontier loops and cycle checks: a hang must fail.
@pytest.mark.bounded
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

    def test_long_cycle_is_a_validation_error(self, capsys, tmp_path):
        n = 1500
        net = tmp_path / "cyc.bn"
        net.write_text(
            "".join(f"var V{i} 2\n" for i in range(n))
            + "".join(f"arc V{i} V{(i + 1) % n}\n" for i in range(n))
        )
        data = tmp_path / "cyc.csv"
        data.write_text(",".join(f"V{i}" for i in range(n)) + "\n")
        for argv in (
            ["dsep", "--net", str(net), "--count-marginal"],
            ["score", "--metric", "k2", "--structure", str(net), "--data", str(data)],
        ):
            code, _, err = run(capsys, argv)
            assert code == 3
            assert "cycle detected: V0 -> V1 -> V2" in err
            assert "Traceback" not in err and "RecursionError" not in err

    def test_x_and_y_required_without_count_flag(self, capsys, tmp_path, wide_terminal):
        net = tmp_path / "collider.bn"
        net.write_text(COLLIDER_NET)
        code, out, err = run(capsys, ["dsep", "--net", str(net), "--x", "X"])
        assert code == 3 and out == ""
        assert err == usage_fault(
            "dsep", "--x and --y are required unless --count-marginal is given"
        )

    @pytest.mark.parametrize(
        "argv", [["--x", "X"], ["--y", "Y"], ["--given", "Z"], ["--x", "X", "--y", "Y"]],
        ids=["x", "y", "given", "x-and-y"],
    )
    def test_count_flag_takes_no_query(self, capsys, tmp_path, wide_terminal, argv):
        net = tmp_path / "collider.bn"
        net.write_text(COLLIDER_NET)
        code, out, err = run(capsys, ["dsep", "--net", str(net), "--count-marginal", *argv])
        assert code == 3 and out == ""
        assert err == usage_fault("dsep", "--count-marginal takes no --x, --y or --given")

    @pytest.mark.parametrize(
        "text, code, expected",
        [
            (WIDE_NET, 2, "variable 'A' is missing 1 cpt row(s), first missing config 0"),
            (alarm_path().read_text(), 0, "marginally_d_separated_pairs=365"),
        ],
        ids=["wide", "alarm"],
    )
    def test_parse_allocates_only_rows_the_file_gives(self, tmp_path, text, code, expected):
        # WIDE_NET's C has 10000**2 parent configurations: a full table
        # would take 7.28 TiB, far past the child's 1 GiB address space.
        net = tmp_path / "net.bn"
        net.write_text(text)
        proc = run_in_1gib(["dsep", "--net", str(net), "--count-marginal"])
        assert proc.returncode == code
        assert expected in proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr


class TestRoc:
    ARGS = ["roc", "--sizes", "5,10", "--reps", "3", "--metrics", "bdeu4,gu", "--seed", "7"]

    def test_small_run_writes_both_csvs(self, capsys, tmp_path):
        out_dir = tmp_path / "roc"
        code, out, _ = run(capsys, [*self.ARGS, "--out", str(out_dir)])
        assert code == 0
        auc_lines = (out_dir / "auc_summary.csv").read_text().splitlines()
        roc_lines = (out_dir / "mean_roc.csv").read_text().splitlines()
        assert auc_lines[0] == "metric,alpha0,n,mean_auc,ci_low,ci_high,reps"
        assert len(auc_lines) == 1 + 2 * 2
        assert roc_lines[0] == "metric,n,fpr,tpr"
        assert len(roc_lines) == 1 + 2 * 2 * 47
        assert "bdeu alpha0=4 n=5: mean_auc=" in out

    def test_reruns_byte_identical_across_job_counts(self, capsys, tmp_path, monkeypatch):
        # roc runs one worker per usable CPU: one CPU runs the study
        # in-process, two fork two pinned workers.
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(rocstats, "_usable_cpus", lambda cpus=cpus: cpus)
            out_dir = tmp_path / f"cpus{cpus}"
            assert run(capsys, [*self.ARGS, "--out", str(out_dir)])[0] == 0
            outputs.append([(out_dir / n).read_bytes() for n in ("auc_summary.csv", "mean_roc.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.bounded
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="workers need affinity")
    def test_a_worker_that_dies_exits_2(self, capsys, tmp_path, monkeypatch):
        # Two usable CPUs, so every chunk of replicates runs in a forked worker.
        monkeypatch.setattr(rocstats, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(rocstats, "_chunk_curves", lambda *task: os._exit(9))
        code, out, err = run(capsys, [*self.ARGS, "--out", str(tmp_path / "roc")])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: worker [01] ended without a result, wait status 2304\n", err)

    def test_bad_metric_token(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["roc", "--metrics", "bdeuX", "--out", str(tmp_path / "x")],
        )
        assert code == 3
        assert "bad metric token" in err

    def test_close_alpha0s_are_two_metrics(self, capsys, tmp_path):
        # Labels keep every digit of alpha0, so they read back as two metrics.
        out_dir = tmp_path / "roc"
        argv = ["roc", "--sizes", "5", "--reps", "2", "--metrics", "bdeu0.1234567,bdeu0.1234568",
                "--out", str(out_dir)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        labels = {line.split(",")[0] for line in (out_dir / "mean_roc.csv").read_text().splitlines()}
        assert labels == {"metric", "bdeu0.1234567", "bdeu0.1234568"}
        assert [line.split(" n=")[0] for line in out.splitlines()] == [
            "bdeu alpha0=0.1234567", "bdeu alpha0=0.1234568"
        ]

    @pytest.mark.parametrize(
        "metrics, message",
        [
            ("k2,foo", "bad metric token 'foo'; expected k2, gu, or bdeu<alpha0>"),
            ("k2,", "bad metric token ''; expected k2, gu, or bdeu<alpha0>"),
            ("bdeu", "bad metric token 'bdeu': could not convert string to float: ''"),
            ("bdeuinf", "bad metric token 'bdeuinf': alpha0 must be positive and finite, got inf"),
            ("bdeu4,bdeu4.0", "metric 'bdeu4' is given more than once"),
        ],
        ids=["unknown", "empty", "bare-bdeu", "infinite", "repeated"],
    )
    def test_bad_metric_list_is_named(self, capsys, tmp_path, metrics, message):
        argv = ["roc", "--sizes", "5", "--reps", "2", "--metrics", metrics, "--out", str(tmp_path / "x")]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--metrics", "bdeuinf"],
            ["--sizes", "abc"],
            ["--sizes", "5,0"],
            ["--seed", "-1"],
            # No longer an option: argparse rejects it as an unknown argument.
            ["--jobs", "0"],
            ["--jobs", "-1"],
            ["--jobs", "abc"],
            ["--sizes", "5", "--reps", "2", "--metrics", "bdeu1e-320"],
            ["--sizes", "5", "--reps", "2", "--metrics", "k2,k2"],
            ["--sizes", "5", "--reps", "2", "--metrics", "bdeu4,bdeu4.0"],
            ["--sizes", "5,5", "--reps", "2", "--metrics", "k2"],
        ],
    )
    def test_invalid_input_is_a_usage_error(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "x"
        code, out, err = run(capsys, ["roc", *argv, "--out", str(out_dir)])
        assert code == 3
        assert "nan" not in out and "Traceback" not in err
        assert not (out_dir / "auc_summary.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "²"], "expected a non-negative integer, got '²'"),
            (["--sizes", "5,²"], "expected positive integer sizes, got '5,²'"),
        ],
        ids=["seed", "sizes"],
    )
    def test_superscript_digit_gets_the_type_message(self, capsys, tmp_path, argv, message):
        # str.isdigit accepts superscripts, which int() rejects
        code, _, err = run(capsys, ["roc", *argv, "--out", str(tmp_path / "x")])
        assert code == 3
        assert message in err

    @pytest.mark.parametrize(
        "value", ["1", "0", "-1", "abc", "²"], ids=["1", "0", "minus-1", "abc", "superscript-2"]
    )
    def test_jobs_is_not_an_option(self, capsys, tmp_path, value):
        # roc works out its worker count itself; taskset narrows it.
        out_dir = tmp_path / "x"
        code, out, err = run(capsys, ["roc", "--jobs", value, "--out", str(out_dir)])
        assert (code, out) == (3, "")
        assert err.endswith(f"error: unrecognized arguments: --jobs {value}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (argv, kind)
            for argv, kind in [
                (["sample", "--n"], "a non-negative integer"),
                (["roc", "--reps"], "a positive integer"),
                (["bench", "--example"], "a positive integer"),
            ]
            for argv in ([*argv, "1_0"], [*argv, "²"])
        ],
        ids=["n-underscore", "n-superscript", "reps-underscore", "reps-superscript",
             "example-underscore", "example-superscript"],
    )
    def test_count_options_read_decimal_digits_only(self, capsys, argv, kind):
        # int() accepts "1_0" as 10 and str.isdigit accepts superscripts
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert f"expected {kind}, got {argv[-1]!r}" in err

    def test_unusable_out_fails_before_the_study(self, capsys, tmp_path, monkeypatch):
        def study_must_not_run(*args, **kwargs):
            raise AssertionError("the study ran before --out was made")

        monkeypatch.setattr(rocstats, "run_alarm_experiment", study_must_not_run)
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        code, out, err = run(capsys, ["roc", "--out", str(taken)])
        assert code == 2
        assert out == "" and err.startswith("error: ") and str(taken) in err

    def test_defaults_come_from_rocstats(self):
        args = _build_parser().parse_args(["roc", "--out", "x"])
        assert tuple(args.sizes) == rocstats.DEFAULT_SIZES
        metrics = [m.label for m in rocstats.DEFAULT_METRICS]
        assert args.metrics.split(",") == metrics

    def test_jobs_default_counts_only_cpus_the_process_may_use(self, capsys, tmp_path, monkeypatch):
        # Pinned to one CPU of a 64-CPU host, as by taskset.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        jobs = []

        def study(*args, **kwargs):
            jobs.append(kwargs["jobs"])
            raise rocstats.DegenerateInput("stub")

        monkeypatch.setattr(rocstats, "run_alarm_experiment", study)
        assert run(capsys, ["roc", "--out", str(tmp_path / "x")])[0] == 3
        assert jobs == [1]


# Runs the CLI with the given arguments (none: only imports bnscore), then
# reports the scipy, process-pool and bnscore modules the command loaded, whether
# import bnscore left os.environ as it was, the process's thread count
# (None where there is no /proc) after the import and at exit, and whether
# a child process is left.
STARTUP_PROBE = """
import os
import sys
def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
environ = dict(os.environ)
import bnscore
print("environ unchanged:", dict(os.environ) == environ)
print("threads after import:", threads())
code = 0
if sys.argv[1:]:
    from bnscore.cli import main
    code = main(sys.argv[1:])
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
pool = ("concurrent", "multiprocessing")
print("pool modules:", sorted(m for m in sys.modules if m.split(".")[0] in pool))
stats = ("statistics", "fractions", "decimal")
print("statistics modules:", sorted(m for m in sys.modules if m.split(".")[0] in stats))
print("bnscore modules:", sorted(m for m in sys.modules if m.startswith("bnscore.")))
print("threads at exit:", threads())
try:
    print("child left:", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("child left: none")
sys.exit(code)
"""

# The thread count numpy alone starts with, for comparison.
NUMPY_PROBE = """
import os
import numpy
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print("threads after import:", tasks)
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity to pin a child"
)


class TestStartUp:
    """No command loads scipy, a process pool or statistics (with its
    fractions and decimal): roc forks its workers itself and takes its
    means and deviations in floats and ints, and import bnscore loads none
    of them.
    bnscore calls no BLAS routine, so unless the caller set a BLAS thread
    count the process runs on one thread, and the import leaves os.environ
    as it found it."""

    @staticmethod
    def probe(argv, code=STARTUP_PROBE, preexec_fn=None, **blas_env):
        """Run code in a fresh interpreter whose environment has none of the
        BLAS thread variables but those in blas_env."""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(blas_env)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env=env, timeout=300, preexec_fn=preexec_fn,
        )

    @staticmethod
    def one_cpu():
        """preexec_fn: run the child on one CPU, as taskset -c does, so roc
        runs its study in-process."""
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bench", "--example", "3"],
            ["dsep", "--net", "{alarm}", "--x", "HRBP", "--y", "HREKG", "--given", "HR"],
            ["dsep", "--net", "{alarm}", "--count-marginal"],
            ["sample", "--net", "{alarm}", "--n", "200", "--seed", "3", "--out", "{tmp}/s.csv"],
            ["score", "--metric", "bdeu", "--alpha0", "4", "--net", "{net}", "--data", "{data}"],
        ],
        ids=["import", "bench", "dsep-given", "dsep-count", "sample", "score"],
    )
    def test_command_leaves_scipy_unloaded(self, tmp_path, pair_files, argv):
        net, data = pair_files
        fields = {"alarm": str(alarm_path()), "tmp": str(tmp_path), "net": net, "data": data}
        proc = self.probe([a.format(**fields) for a in argv])
        assert proc.returncode == 0, proc.stderr
        assert "scipy modules: []" in proc.stdout
        assert "pool modules: []" in proc.stdout
        assert "statistics modules: []" in proc.stdout
        assert "environ unchanged: True" in proc.stdout
        if Path("/proc/self/task").is_dir():
            assert "threads after import: 1\n" in proc.stdout
            assert "threads at exit: 1\n" in proc.stdout

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            ([], ["cli", "genbench", "model", "netio", "rocstats", "scoring"]),
            (["bench", "--example", "3"], ["netio", "rocstats"]),
            (["dsep", "--net", "{alarm}", "--count-marginal"], ["genbench", "rocstats", "scoring"]),
            (
                ["score", "--metric", "k2", "--net", "{net}", "--data", "{data}"],
                ["genbench", "rocstats"],
            ),
            (["sample", "--net", "{alarm}", "--n", "20", "--out", "{tmp}/s.csv"], ["rocstats"]),
            (["roc", "--sizes", "5", "--reps", "2", "--metrics", "k2", "--out", "{tmp}/roc"], []),
        ],
        ids=["import", "bench", "dsep", "score", "sample", "roc"],
    )
    def test_command_loads_only_its_modules(self, tmp_path, pair_files, argv, unloaded):
        net, data = pair_files
        fields = {"alarm": str(alarm_path()), "tmp": str(tmp_path), "net": net, "data": data}
        proc = self.probe([a.format(**fields) for a in argv])
        assert proc.returncode == 0, proc.stderr
        every = {"cli", "genbench", "model", "netio", "rocstats", "scoring"}
        loaded = sorted(f"bnscore.{m}" for m in every - set(unloaded))
        assert f"bnscore modules: {loaded}\n" in proc.stdout

    @needs_affinity
    def test_roc_leaves_scipy_unloaded(self, tmp_path):
        # At this size the AUCs vary, so the interval needs its t quantile.
        argv = ["roc", "--sizes", "5", "--reps", "3", "--metrics", "k2"]
        proc = self.probe([*argv, "--out", str(tmp_path / "roc")], preexec_fn=self.one_cpu)
        assert proc.returncode == 0, proc.stderr
        ci_low, ci_high = (tmp_path / "roc" / "auc_summary.csv").read_text().split(",")[-3:-1]
        assert float(ci_low) < float(ci_high)
        assert "scipy modules: []" in proc.stdout
        if Path("/proc/self/task").is_dir():
            assert "threads at exit: 1\n" in proc.stdout

    @needs_affinity
    @pytest.mark.parametrize("cpus", ["one", "every"], ids=["roc-one-cpu", "roc-every-cpu"])
    def test_roc_loads_no_statistics(self, tmp_path, cpus):
        # Two sizes: two chunks, so every CPU beyond one runs a forked worker.
        # At these sizes the AUCs vary, so each interval needs a deviation.
        argv = ["roc", "--sizes", "5,10", "--reps", "3", "--metrics", "k2"]
        preexec_fn = self.one_cpu if cpus == "one" else None
        proc = self.probe([*argv, "--out", str(tmp_path / "roc")], preexec_fn=preexec_fn)
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "roc" / "auc_summary.csv").read_text().splitlines()[1:]
        assert all(float(row.split(",")[-3]) < float(row.split(",")[-2]) for row in rows)
        assert "statistics modules: []" in proc.stdout

    @needs_affinity
    def test_forked_roc_loads_no_pool_modules(self, tmp_path):
        # Unpinned, roc forks one worker per usable CPU (in-process on one).
        argv = ["roc", "--sizes", "5,10", "--reps", "3", "--metrics", "k2"]
        proc = self.probe([*argv, "--out", str(tmp_path / "roc")])
        assert proc.returncode == 0, proc.stderr
        assert "pool modules: []" in proc.stdout
        assert "scipy modules: []" in proc.stdout
        assert "child left: none" in proc.stdout
        if Path("/proc/self/task").is_dir():
            assert "threads at exit: 1\n" in proc.stdout

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_caller_thread_setting_is_kept(self, var):
        proc = self.probe([], **{var: "2"})
        assert proc.returncode == 0, proc.stderr
        assert "environ unchanged: True" in proc.stdout
        plain = self.probe([], code=NUMPY_PROBE, **{var: "2"})
        assert plain.returncode == 0, plain.stderr
        assert plain.stdout in proc.stdout

    @needs_affinity
    def test_small_roc_still_writes_its_csvs(self, tmp_path):
        out_dir = tmp_path / "roc"
        proc = self.probe([*TestRoc.ARGS, "--out", str(out_dir)], preexec_fn=self.one_cpu)
        assert proc.returncode == 0, proc.stderr
        for name in ("auc_summary.csv", "mean_roc.csv"):
            assert len((out_dir / name).read_text().splitlines()) > 1, name


# Runs bnscore.cli as ``python -m`` does, or calls main() as the console
# script does, and prints the collector's freeze count at exit.
FREEZE_PROBE = """
import atexit
import gc
import runpy
import sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count()))
if sys.argv[1] == "module":
    sys.argv[1:2] = []
    runpy.run_module("bnscore.cli", run_name="__main__", alter_sys=True)
else:
    from bnscore.cli import main
    del sys.argv[1]
    sys.exit(main())
"""


# Calls main() as the console script does, then reports whether OpenSSL's
# _hashlib was loaded and which sha256 a later import hashlib gives.
HASHLIB_PROBE = """
import atexit
import sys
def report():
    print("_hashlib loaded:", "_hashlib" in sys.modules)
    import hashlib
    print("sha256:", hashlib.sha256.__name__)
atexit.register(report)
from bnscore.cli import main
sys.exit(main())
"""


class TestNoLibcrypto:
    """Run as the program, sample and roc load numpy.random without OpenSSL's
    _hashlib, silently, and leave hashlib to load it as usual afterwards."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--net", "{alarm}", "--n", "50", "--seed", "3", "--out", "{tmp}/s.csv"],
            ["roc", "--sizes", "5,10", "--reps", "2", "--metrics", "k2", "--out", "{tmp}/roc"],
        ],
        ids=["sample", "roc"],
    )
    def test_program_leaves_hashlib_unloaded(self, tmp_path, argv):
        fields = {"alarm": str(alarm_path()), "tmp": str(tmp_path)}
        proc = TestStartUp.probe([a.format(**fields) for a in argv], code=HASHLIB_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "_hashlib loaded: False\n" in proc.stdout
        assert proc.stdout.endswith("sha256: openssl_sha256\n")


class TestGcFreeze:
    """Run as the program, the CLI freezes the import-time heap, so the
    collections at exit and in forked roc workers skip it; main(argv)
    called in-process leaves the caller's collector alone."""

    @pytest.mark.parametrize("how", ["module", "console-script"])
    def test_program_freezes_the_import_heap(self, how):
        proc = TestStartUp.probe([how, "bench", "--example", "3"], code=FREEZE_PROBE)
        assert proc.returncode == 0, proc.stderr
        frozen = int(proc.stdout.rsplit("frozen at exit: ", 1)[1])
        assert frozen > 1000

    def test_in_process_main_keeps_the_callers_collector(self, capsys):
        before = gc.get_freeze_count()
        assert main(["bench", "--example", "3"]) == 0
        assert gc.get_freeze_count() == before


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 3

    def test_bare_memory_error_is_one_line(self, capsys, monkeypatch):
        # The interpreter's own MemoryError has no message to print after ": ".
        def cmd_bench(parser, args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_bench", cmd_bench)
        code, out, err = run(capsys, ["bench", "--example", "1"])
        assert (code, out, err) == (3, "", "error: out of memory\n")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 3

    def test_each_command_gets_its_own_parser(self, capsys, monkeypatch):
        # So a fault a command finds prints that command's usage line.
        progs = {}

        def record(parser, args):
            progs[args.command] = parser.prog
            return 0

        argvs = {
            "score": ["--metric", "k2", "--net", "n", "--data", "d"],
            "bench": ["--example", "1"],
            "sample": ["--net", "n", "--n", "1", "--out", "o"],
            "roc": ["--out", "o"],
            "dsep": ["--net", "n"],
        }
        for command, argv in argvs.items():
            monkeypatch.setattr(cli, f"cmd_{command}", record)
            assert run(capsys, [command, *argv])[0] == 0
        assert progs == {command: f"bnscore {command}" for command in argvs}


class TestFileErrors:
    """A file the command cannot read, parse or write ends in exit 2 and one
    error line that names it, never a traceback."""

    MISSING_DIR = "{tmp}/missing/x.csv"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{binary}"], "{binary}"),
            (["dsep", "--net", "{binary}", "--count-marginal"], "{binary}"),
            (["sample", "--net", "{alarm}", "--n", "3", "--out", MISSING_DIR], MISSING_DIR),
            (["bench", "--example", "2", "--out", MISSING_DIR], MISSING_DIR),
            (
                ["roc", "--sizes", "5", "--reps", "2", "--metrics", "k2", "--out", "{taken}"],
                "{taken}",
            ),
            (["score", "--metric", "k2", "--net", "{many}", "--data", "{sup2}"], MANY_PARENT_FAULT),
            (["sample", "--net", "{many}", "--n", "3", "--out", "{tmp}/s.csv"], MANY_PARENT_FAULT),
            (["roc", "--net", "{many}", "--out", "{tmp}/roc"], MANY_PARENT_FAULT),
            (["dsep", "--net", "{many}", "--count-marginal"], MANY_PARENT_FAULT),
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{sup2}"], "'²'"),
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{sup3}"], "'³'"),
            # Cells past the csv module's field size limit (131,072 characters)
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{long_cell}"],
             "row 2: field larger than field limit"),
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{long_name}"],
             "header row: field larger than field limit"),
            # The data file is decoded as it is read, so a byte past the first
            # 8 KB chunk that cannot be decoded is met after the rows before it.
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{late_byte}"],
             "row 1, column 'Y': unknown state 'zz'"),
            (["score", "--metric", "k2", "--net", "{net}", "--data", "{clean_late_byte}"],
             "cannot read {clean_late_byte}: "),
        ],
        ids=[
            "score-undecodable-data", "dsep-undecodable-net", "sample-out-missing-dir",
            "bench-out-missing-dir", "roc-out-is-a-file", "score-2**64-parent-configs",
            "sample-2**64-parent-configs", "roc-2**64-parent-configs",
            "dsep-2**64-parent-configs", "score-superscript-2",
            "score-superscript-3", "score-cell-past-csv-limit", "score-header-past-csv-limit",
            "score-row-fault-before-undecodable-byte", "score-undecodable-byte-after-rows",
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, pair_files, argv, named):
        net, _ = pair_files
        fields = {"alarm": str(alarm_path()), "tmp": str(tmp_path), "net": net}
        for name, content in (
            ("binary", b"X,Y\n\xff,y1\n"),
            ("taken", b""),
            ("many", MANY_PARENT_NET.encode()),
            # str.isdigit accepts superscripts, which int() rejects
            ("sup2", "X,Y\nx1,y1\n²,y2\n".encode()),
            ("sup3", "X,Y\n³,y1\n".encode()),
            ("long_cell", b'X,Y\nx1,y1\n"' + b"x" * 200_000 + b'",y1\n'),
            ("long_name", b'"' + b"X" * 200_000 + b'",Y\nx1,y1\n'),
            ("late_byte", b"X,Y\nx1,zz\n" + b"x1,y1\n" * 30_000 + b"\xff,y1\n"),
            ("clean_late_byte", b"X,Y\n" + b"x1,y1\n" * 30_000 + b"\xff,y1\n"),
        ):
            fields[name] = str(tmp_path / name)
            (tmp_path / name).write_bytes(content)
        code, out, err = run(capsys, [a.format(**fields) for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named.format(**fields) in err
        assert "Traceback" not in err


class TestMemoryBounds:
    """A count table, variable or sample too large for memory ends in one
    error line and exit 2 or 3, never a traceback, even in a 1 GiB child."""

    FILES = {
        "wide.bn": WIDE_NET,
        "wide.csv": "A,B,C\n1,1,1\n",
        "wider.bn": "".join(f"var {v} 100000\n" for v in "ABCDE")
        + "".join(f"arc {v} E\n" for v in "ABCD"),
        "wider.csv": "A,B,C,D,E\n1,1,1,1,1\n",
        "huge-arity.bn": "var A 1000000000\nvar B 2\n",
        # Its default labels "1".."16777216" take more than 1 GiB as str.
        "max-arity.bn": "var A 16777216\nvar B 2\n",
        "wide-pair.bn": WIDE_PAIR_NET,
    }

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            # C's table has 10000**3 cells, 7.28 TiB of int64.
            (["score", "--metric", "k2", "--structure", "wide.bn", "--data", "wide.csv"], 3,
             "a count table over A, B, C would have 1000000000000 cells"),
            # E's has 100000**5 cells, past int64 itself.
            (["score", "--metric", "k2", "--structure", "wider.bn", "--data", "wider.csv"], 3,
             "a count table over A, B, C, D, E would have 10000000000000000000000000 cells"),
            (["score", "--metric", "k2", "--structure", "huge-arity.bn", "--data", "wide.csv"], 2,
             "line 1: variable 'A': arity must be 2 to 16777216, got 1000000000"),
            (["sample", "--net", str(alarm_path()), "--n", "1000000000000", "--out", "s.csv"], 3,
             "out of memory"),
            (["roc", "--sizes", "1000000000000", "--reps", "2", "--out", "roc"], 3,
             "out of memory"),
            (["dsep", "--net", "max-arity.bn", "--count-marginal"], 3,
             "out of memory: variable 'A': the state labels of arity 16777216"
             " do not fit in memory"),
            # Past np.intp, where numpy raises a ValueError, not a MemoryError.
            (["sample", "--net", str(alarm_path()), "--n", "9223372036854775808",
              "--out", "s.csv"], 3,
             "out of memory: 9223372036854775808 cases of 37 variables do not fit in memory"),
            (["roc", "--sizes", "1000000000000000000", "--reps", "2", "--metrics", "k2",
              "--out", "roc"], 3,
             "out of memory: 1000000000000000000 cases of 37 variables do not fit in memory"),
            # The study's AUC array, allocated before any task, is 7.28 TiB.
            (["roc", "--sizes", "5", "--reps", "1000000000000", "--metrics", "k2",
              "--out", "roc"], 3, "out of memory: Unable to allocate"),
            # Its grid-row array is past np.intp.
            (["roc", "--sizes", "5", "--reps", "4611686018427387904", "--metrics", "k2",
              "--out", "roc"], 3,
             "out of memory: the results of 4611686018427387904 replicates do not fit in memory"),
            # A ROC pair past the count-table cap, caught by the study's pair check.
            (["roc", "--net", "wide-pair.bn", "--sizes", "5", "--reps", "2", "--metrics", "k2",
              "--out", "roc"], 3,
             "out of memory: a count table over B1, B2 would have 16785409 cells, past 16777216"),
        ],
        ids=["score-wide", "score-wider", "var-arity", "sample", "roc", "var-labels",
             "sample-past-intp", "roc-past-intp", "roc-reps", "roc-reps-past-intp",
             "roc-wide-pair"],
    )
    def test_exits_with_one_error_line(self, tmp_path, argv, code, expected):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        proc = run_in_1gib(argv, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert expected in proc.stderr
        assert "Traceback" not in proc.stderr
