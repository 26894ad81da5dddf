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

from .model import (
    BayesNet,
    CliqueDecomposition,
    CycleDetected,
    DagStructure,
    Dataset,
    DuplicateParent,
    IndexOutOfRange,
    ModelError,
    SchemaMismatch,
    SelfLoop,
    StateOutOfRange,
    Variable,
    clique_decomposition,
    count_sufficient_stats,
    d_separated,
    joint_cell_counts,
    validate_dag,
)
from .netio import (
    HeaderMismatch,
    MissingCptRow,
    MissingValue,
    NetworkDocument,
    NetworkSyntaxError,
    RowSumNotOne,
    UnknownStateLabel,
    UnknownVariable,
    alarm_path,
    load_alarm,
    parse_dataset,
    parse_network,
    parse_structure,
    serialize_network,
    write_dataset,
)
from .scoring import (
    DomainError,
    MetricSpec,
    NotCliqueDecomposable,
    RatioResult,
    arc_posterior,
    log_score,
    pair_structures,
    structure_ratio,
)
from .genbench import (
    ALPHA0_GRID,
    EXAMPLES,
    ExampleSpec,
    JointTable,
    RatioRow,
    SweepResult,
    alpha0_sweep,
    forward_sample,
    independent_joint,
    noise_free_dataset,
    ratio_table_csv,
    run_example,
)
from .rocstats import (
    AucSummary,
    DegenerateInput,
    ExperimentResult,
    InsufficientNegatives,
    PairSets,
    RocCurve,
    ScoredPair,
    auc,
    auc_from_pairs,
    auc_summary_csv,
    enumerate_pair_sets,
    mann_whitney_auc,
    marginally_d_separated_pairs,
    mean_roc,
    mean_roc_csv,
    roc_points,
    run_alarm_experiment,
    t_confidence_interval,
)

__version__ = "0.1.0"
