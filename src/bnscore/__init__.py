"""Marginal-likelihood scoring for discrete Bayesian networks.

Three metrics on complete discrete data: K2, BDeu(alpha0), and the
global-uniform (GU) prior, plus noise-free benchmark generation, forward
sampling, and arc-detection ROC studies against a known network.

The package loads its modules on first use (PEP 562), so a command loads
only the code it runs.
"""

import importlib as _importlib
import os as _os

# bnscore calls no BLAS routine, yet numpy's bundled OpenBLAS sizes its
# thread pool to the CPU count when it loads, which costs start-up time
# and keeps the other cores spinning.  OpenBLAS reads its thread count
# once, at load, so the variable is set for the numpy import only: the
# process keeps one BLAS thread while os.environ, and the caller's child
# processes, see no change.  A thread count the caller set takes effect,
# and where numpy is already loaded the import changes nothing.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if any(v in _os.environ for v in _BLAS_THREAD_VARS):
    import numpy as _numpy
else:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

# The modules whose public names the package exports, in lookup order.
_MODULES = ("model", "netio", "scoring", "genbench", "rocstats")


def _submodule(name: str):
    return _importlib.import_module(f"{__name__}.{name}")


def _exports() -> list[str]:
    """Each module's __all__, the one list of its public names, joined."""
    return [name for module in _MODULES for name in _submodule(module).__all__]


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):
        return _submodule(name)
    if name == "__all__":
        value = _exports()
    else:
        owner = next((m for m in _MODULES if name in _submodule(m).__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(_submodule(owner), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_exports()})
