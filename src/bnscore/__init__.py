"""Marginal-likelihood scoring for discrete Bayesian networks.

Three metrics on complete discrete data: K2, BDeu(alpha0), and the
global-uniform (GU) prior, plus noise-free benchmark generation, forward
sampling, and arc-detection ROC studies against a known network.
"""

import os as _os

# bnscore calls no BLAS routine, yet numpy's bundled OpenBLAS sizes its
# thread pool to the CPU count when it loads, which costs start-up time
# and keeps the other cores spinning.  OpenBLAS reads its thread count
# once, at load, so the variable is set for the numpy import only: the
# process keeps one BLAS thread while os.environ, and the caller's child
# processes, see no change.  A thread count the caller set takes effect,
# and where numpy is already loaded the import changes nothing.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# Each module's __all__ is the one list of its public names.
from .model import *
from .netio import *
from .scoring import *
from .genbench import *
from .rocstats import *

__version__ = "0.1.0"
