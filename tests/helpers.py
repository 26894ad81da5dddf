"""Shared test construction helpers."""

import contextlib
import signal
import tracemalloc
from pathlib import Path

import numpy as np

from bnscore import Dataset, Variable


def make_pair_dataset(table, variables=None):
    """Dataset realising a 2-D count table over two discrete variables."""
    table = np.asarray(table, dtype=np.int64)
    if variables is None:
        variables = (Variable("X", table.shape[0]), Variable("Y", table.shape[1]))
    cells = [(i, j) for i in range(table.shape[0]) for j in range(table.shape[1])]
    cases = np.repeat(np.array(cells, dtype=np.int64), table.reshape(-1), axis=0)
    return Dataset(tuple(variables), cases)


def traced_peak(fn, *args):
    """fn(*args) and the peak of tracemalloc's traced memory while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TimeBoundExceeded(BaseException):
    """Raised by time_bound.  Not an Exception, so neither hypothesis (which
    would rerun a hanging example to shrink it) nor an ``except Exception``
    in the code under test can catch it."""


@contextlib.contextmanager
def time_bound(seconds):
    """Raise TimeBoundExceeded in the block once it has run for seconds of
    wall time, so a loop that cannot end fails its test instead of hanging
    the suite.  SIGALRM-based: main thread, POSIX."""

    def expire(signum, frame):
        where = f"{frame.f_code.co_name} ({Path(frame.f_code.co_filename).name})"
        raise TimeBoundExceeded(f"still running after {seconds} s, in {where}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeBoundExceeded as exc:
        # The alarm may stop a loop at an instruction with no line number,
        # which pytest cannot print: raise afresh from here instead.
        raise TimeBoundExceeded(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
