"""Golden outputs: the CLI writes the bytes recorded in tests/golden.

``tools/snapshot_outputs.py`` runs each command in its own directory and
lists the SHA-256 of every file it writes.  These tests run those rows
against this tree's ``src`` and compare the digests with the committed
manifest, so a moved output digit fails the suite.  The default ``roc``
study, about 5 s on 2 cores against 4-5 s for every other row together
(the rows run side by side), runs under the ``full`` marker.  A change
that moves an output regenerates the golden files in the same commit (see
README) and explains every moved digit.
"""

import hashlib
import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "outputs.sha256"

_spec = importlib.util.spec_from_file_location(
    "snapshot_outputs", ROOT / "tools" / "snapshot_outputs.py"
)
snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot)


def digests(lines):
    """{NAME/FILE: digest} from ``DIGEST  NAME/FILE`` manifest lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def golden(select):
    """The committed digests of the rows whose names pass select."""
    return {
        path: digest
        for path, digest in digests(MANIFEST.read_text().splitlines()).items()
        if select(path.split("/", 1)[0])
    }


@pytest.mark.parametrize(
    "default_roc",
    [False, pytest.param(True, marks=pytest.mark.full)],
    ids=["other-rows", "roc-default"],
)
def test_outputs_match_golden(tmp_path, default_roc):
    def select(name):
        return (name == "roc-default") == default_roc

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    rows = [row for row in snapshot.prepare(tmp_path, env) if select(row[0])]
    assert digests(snapshot.run_rows(tmp_path, rows, env)) == golden(select)


def test_committed_outputs_are_the_manifests():
    """Each output file kept beside the manifest, for a readable git diff,
    is the file whose digest the manifest records."""
    kept = sorted(p for p in GOLDEN.rglob("*") if p.is_file() and p != MANIFEST)
    assert kept
    recorded = golden(lambda name: True)
    for path in kept:
        name = path.relative_to(GOLDEN).as_posix()
        assert recorded[name] == hashlib.sha256(path.read_bytes()).hexdigest(), name


def test_a_row_starts_after_the_row_it_reads(tmp_path, monkeypatch):
    """Rows run side by side, but one whose argv reads ../OTHER/ waits for
    row OTHER to finish."""
    monkeypatch.setattr(snapshot, "usable_cpus", lambda: 2)
    rows = [
        ("slow", ["-c", "import time; time.sleep(0.5); open('out', 'w').write('done')"]),
        ("reader", ["-c", "import sys; sys.stdout.write(open(sys.argv[1]).read())", "../slow/out"]),
    ]
    snapshot.run_rows(tmp_path, rows, dict(os.environ))
    assert (tmp_path / "reader" / "stdout").read_text() == "done"
