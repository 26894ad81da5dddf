"""Shared test construction helpers."""

import tracemalloc

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
