"""Snapshot the CLI's outputs so two trees can be compared byte for byte.

Usage (from a checkout, with the bnscore to snapshot on PYTHONPATH):

    PYTHONPATH=src python3 tools/snapshot_outputs.py OUT

Each command runs as ``python -m bnscore.cli ...`` in its own directory
OUT/NAME, which receives the command's ``stdout``, ``stderr`` and
``exit_code`` next to any file the command writes. The commands run side by
side on the CPUs this process may use; one that reads ../OTHER/ starts after
row OTHER has finished. OUT/one-arc.bn is the
ALARM variables with the single arc HYPOVOLEMIA -> LVEDVOLUME, the structure
the ``score --structure`` rows read. OUT/wide-states.bn has a 300-state
variable, past what uint8 cases hold, for a ``sample`` row and a ``score`` row
on its output. OUT/wide.bn and its one-row OUT/wide.csv
give a count table too large to hold, OUT/huge-arity.bn a variable past
the arity cap, and OUT/wide-pair.bn a ``roc`` pair whose table passes the
cell cap; each must end in one error line. OUT/first-fault.csv, over
the two binary variables of OUT/two-binary.bn, has an unknown label in row 1
and a cell past the ``csv`` module's field size limit in row 2; ``score``
must report row 1. OUT/newlines.csv, over the same variables, ends its lines
with CRLF, a lone CR and LF, holds a blank line and has no final line end;
``score`` reads it as LF line ends. OUT/two-components.bn and its two-row
OUT/two-components.csv have a skeleton whose second component is a chain;
``score --metric gu`` must name its first pair that no edge joins.
OUT/outputs.sha256 lists the
SHA-256 of every file under the row directories, one ``DIGEST  NAME/FILE``
line per file sorted by path (``sha256sum -c`` reads it from OUT); a fresh
OUT keeps stale files out of it. Relative PYTHONPATH entries are made absolute first,
so the snapshot tests the tree the caller chose. ``tests/test_golden.py``
checks this tree against the committed ``tests/golden/outputs.sha256``; to
compare two trees, snapshot each and run ``diff -r OUT_PARENT OUT_CHANGE``.
Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

CLI = ["-m", "bnscore.cli"]
# Seconds a row may run; the default roc study takes a few, so one that
# hangs raises subprocess.TimeoutExpired instead of blocking the snapshot.
ROW_TIMEOUT = 600
LARGE_N = ["--sizes", "10000,20000", "--reps", "20", "--metrics", "k2,gu", "--seed", "11"]
# Sizes that are not whole bytes of packed cases, with AUCs below 1 that a
# moved count would shift; about 1 s, so it runs with the other rows.
ODD_N = ["--sizes", "13,77,333", "--reps", "5", "--seed", "5"]
# Two BDeu alpha0s that agree to 6 significant digits: two metrics, each
# labelled with every digit.
CLOSE_ALPHA0 = ["--sizes", "5", "--reps", "2", "--metrics", "bdeu0.1234567,bdeu0.1234568"]
SCORES = {
    "k2": ["--metric", "k2"],
    "bdeu1": ["--metric", "bdeu", "--alpha0", "1"],
    "bdeu4": ["--metric", "bdeu", "--alpha0", "4"],
    "gu": ["--metric", "gu"],
    # The kernel's domain edge: lnG leaves float range at 1e-320 and 1e308.
    **{
        f"bdeu{a}": ["--metric", "bdeu", "--alpha0", a]
        for a in ("1e-320", "1e-300", "1e300", "1e308")
    },
}
# HYPOVOLEMIA and LVFAILURE are ALARM roots with the common child LVEDVOLUME,
# whose child is CVP: separated alone, connected given either.
DSEP_GIVEN = {
    "": [],
    "-given-lvedvolume": ["--given", "LVEDVOLUME"],
    "-given-cvp": ["--given", "CVP"],
}
SERIALIZE_ALARM = (
    "import sys; from bnscore.netio import load_alarm, serialize_network; "
    "sys.stdout.write(serialize_network(load_alarm().net))"
)


# C's family table would have 10000**3 cells: 7.28 TiB of int64.
OVERSIZE_FILES = {
    "wide.bn": "var A 10000\nvar B 10000\nvar C 10000\narc A C\narc B C\n",
    "wide.csv": "A,B,C\n1,1,1\n",
    "huge-arity.bn": "var A 1000000000\nvar B 2\n",
    # Nine roots B1..B9 of 4097 states and the arc P -> Q: every draw of 46
    # negatives from the 54 separated pairs holds two roots, 4097**2 cells.
    "wide-pair.bn": "".join(f"var B{i} 4097\n" for i in range(1, 10))
    + "var P 2\nvar Q 2\narc P Q\n"
    + "".join(f"cpt B{i} | : 1{' 0' * 4096}\n" for i in range(1, 10))
    + "cpt P | : 0.5 0.5\ncpt Q | P=1 : 0.9 0.1\ncpt Q | P=2 : 0.2 0.8\n",
}
# The first fault in row order, whatever the reader's block size.
FIRST_FAULT_FILES = {
    "two-binary.bn": "var X 2\nvar Y 2\n",
    "first-fault.csv": 'X,Y\n1,zz\n1,"' + "a" * 200_000 + '"\n',
}
# Two skeleton components, {A, B} a clique and the chain C - D - E, which is
# not: GU names the first pair no edge joins, C and E.
TWO_COMPONENT_FILES = {
    "two-components.bn": "".join(f"var {v} 2\n" for v in "ABCDE") + "arc A B\narc C D\narc D E\n",
    "two-components.csv": "A,B,C,D,E\n1,1,1,1,1\n2,2,2,2,2\n",
}
# Written byte for byte: CRLF, a lone CR, a blank line and no final line end.
NEWLINES_CSV = "X,Y\r\n1,2\r2,1\n\r\n1,1\r\n2,2\r2,1"


def wide_states_network() -> str:
    """W, of 300 states, the later ones likelier, and its binary child V."""
    w = " ".join(format((k + 1) / 45150, ".17g") for k in range(300))  # 45150 = 1 + ... + 300
    v = "".join(f"cpt V | W={k + 1} : {(k % 7 + 1) / 8} {1 - (k % 7 + 1) / 8}\n" for k in range(300))
    return f"var W 300\nvar V 2\narc W V\ncpt W | : {w}\n{v}"


def one_arc_structure(alarm: str) -> str:
    """The var lines of the network file at ``alarm`` plus one arc."""
    lines = [line for line in Path(alarm).read_text().splitlines() if line.startswith("var ")]
    return "\n".join([*lines, "arc HYPOVOLEMIA LVEDVOLUME"]) + "\n"


def commands(alarm: str, structure: str, root: str) -> list[tuple[str, list[str]]]:
    """(directory name, arguments after ``python``), in the order they run;
    root holds the OVERSIZE_FILES, the FIRST_FAULT_FILES, the
    TWO_COMPONENT_FILES and newlines.csv."""
    out = [
        ("roc-default", [*CLI, "roc", "--out", "roc"]),
        ("roc-largen", [*CLI, "roc", *LARGE_N, "--out", "roc"]),
        ("roc-oddn", [*CLI, "roc", *ODD_N, "--out", "roc"]),
        ("roc-close-alpha0", [*CLI, "roc", *CLOSE_ALPHA0, "--out", "roc"]),
    ]
    out += [(f"bench-{k:02d}", [*CLI, "bench", "--example", str(k)]) for k in range(1, 12)]
    out.append(
        ("sample", [*CLI, "sample", "--net", alarm, "--n", "5000", "--seed", "3", "--out", "cases.csv"])
    )
    out += [
        (f"score-{name}", [*CLI, "score", *metric, "--net", alarm, "--data", "../sample/cases.csv"])
        for name, metric in SCORES.items()
    ]
    out += [
        (f"score-structure-{name}",
         [*CLI, "score", *SCORES[name], "--structure", structure, "--data", "../sample/cases.csv"])
        for name in ("k2", "bdeu4", "gu")
    ]
    out += [
        ("sample-wide-states", [*CLI, "sample", "--net", f"{root}/wide-states.bn", "--n", "2000",
                                "--seed", "4", "--out", "cases.csv"]),
        ("score-wide-states", [*CLI, "score", "--metric", "k2", "--net", f"{root}/wide-states.bn",
                               "--data", "../sample-wide-states/cases.csv"]),
    ]
    out += [
        (f"score-{name}", [*CLI, "score", "--metric", "k2", "--structure", f"{root}/{bn}",
                           "--data", f"{root}/wide.csv"])
        for name, bn in (("wide-structure", "wide.bn"), ("huge-arity", "huge-arity.bn"))
    ]
    out.append(
        ("roc-wide-pair", [*CLI, "roc", "--net", f"{root}/wide-pair.bn", "--sizes", "5", "--reps",
                           "2", "--metrics", "k2", "--out", "roc"])
    )
    out.append(
        ("score-first-fault", [*CLI, "score", "--metric", "k2", "--structure", f"{root}/two-binary.bn",
                               "--data", f"{root}/first-fault.csv"])
    )
    out.append(
        ("score-newlines", [*CLI, "score", "--metric", "k2", "--structure", f"{root}/two-binary.bn",
                            "--data", f"{root}/newlines.csv"])
    )
    out.append(
        ("score-gu-two-components", [*CLI, "score", "--metric", "gu", "--structure",
                                     f"{root}/two-components.bn", "--data", f"{root}/two-components.csv"])
    )
    out += [
        ("dsep-query", [*CLI, "dsep", "--net", alarm, "--x", "HRBP", "--y", "HREKG", "--given", "HR"]),
        ("dsep-count", [*CLI, "dsep", "--net", alarm, "--count-marginal"]),
    ]
    out += [
        (f"dsep-hypovolemia-lvfailure{suffix}",
         [*CLI, "dsep", "--net", alarm, "--x", "HYPOVOLEMIA", "--y", "LVFAILURE", *given])
        for suffix, given in DSEP_GIVEN.items()
    ]
    out.append(("serialize-alarm", ["-c", SERIALIZE_ALARM]))
    return out


def prepare(root: Path, env: dict[str, str]) -> list[tuple[str, list[str]]]:
    """Write root/one-arc.bn, root/wide-states.bn, the OVERSIZE_FILES, the FIRST_FAULT_FILES,
    the TWO_COMPONENT_FILES and root/newlines.csv and return the rows, for the bnscore
    that env puts on the path."""
    alarm = subprocess.run(
        [sys.executable, "-c", "from bnscore.netio import alarm_path; print(alarm_path())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    root.mkdir(parents=True, exist_ok=True)
    structure = root / "one-arc.bn"
    structure.write_text(one_arc_structure(alarm))
    (root / "wide-states.bn").write_text(wide_states_network())
    for name, text in {**OVERSIZE_FILES, **FIRST_FAULT_FILES, **TWO_COMPONENT_FILES}.items():
        (root / name).write_text(text)
    (root / "newlines.csv").write_bytes(NEWLINES_CSV.encode())
    return commands(alarm, str(structure), str(root))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_row(root: Path, name: str, args: list[str], env: dict[str, str],
            after: list[Future]) -> list[str]:
    """Wait for the rows in after, run one row in root/NAME and return the
    manifest lines of every file under that directory."""
    for row in after:
        row.result()
    cwd = root / name
    cwd.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=ROW_TIMEOUT
    )
    (cwd / "stdout").write_bytes(proc.stdout)
    (cwd / "stderr").write_bytes(proc.stderr)
    (cwd / "exit_code").write_text(f"{proc.returncode}\n")
    print(f"{name}: exit {proc.returncode}")
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
        for path in cwd.rglob("*")
        if path.is_file()
    ]


def run_rows(root: Path, rows: list[tuple[str, list[str]]], env: dict[str, str]) -> list[str]:
    """Run the rows on the usable CPUs, each in root/NAME; return the sorted
    manifest lines of every file under those directories.

    A row whose argv reads ../OTHER/ starts once the earlier row OTHER has
    finished. The pool takes rows in list order, so a row only ever waits
    for rows that already run, and the waits cannot deadlock.
    """
    started: dict[str, Future] = {}
    with ThreadPoolExecutor(max_workers=usable_cpus()) as pool:
        for name, args in rows:
            after = [row for dep, row in started.items() if any(f"../{dep}/" in a for a in args)]
            started[name] = pool.submit(run_row, root, name, args, env, after)
    lines = [line for row in started.values() for line in row.result()]
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(Path(p).resolve()) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    )
    lines = run_rows(root, prepare(root, env), env)
    (root / "outputs.sha256").write_text("".join(f"{line}\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
