"""Run the bnscore CLI as a child process and measure it from outside.

The package is run from the checkout's ``src`` directory, so the benchmark
needs no installed copy.  Wall time is taken around the child; CPU time
and peak resident memory come from ``wait4``, whose usage figures include
every descendant the child waited for (the ``roc`` process pool).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: A command that runs longer than this is killed, with its process group,
#: and counted as failed.
TIMEOUT_S = 150.0


@dataclass(frozen=True)
class CmdResult:
    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class Runner:
    """Runs Python children against ``<root>/src``, capturing to ``work``."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        pythonpath = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}

    def python(self, *args: str) -> CmdResult:
        """``python3 <args>`` as a child; waits for it and its process group."""
        out_path = self.work / "child.stdout"
        err_path = self.work / "child.stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CmdResult(
            tuple(args),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            out_path.read_text(),
            err_path.read_text(),
        )

    def cli(self, *args: str) -> CmdResult:
        return self.python("-m", "bnscore.cli", *args)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
