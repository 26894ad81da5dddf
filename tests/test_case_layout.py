"""Case data layout: the sampler against its reference, Dataset against its inputs.

``forward_sample`` fills a column-major case array one variable at a time
and counts only the first r - 1 cumulative CPT entries below each uniform
draw.  It must give exactly the cases of the full gather-and-clamp
sampler in ``tests/oracles.py``, draw for draw.  ``Dataset`` must store
the same cases, and count them the same way, whatever layout they arrive in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    BayesNet,
    DagStructure,
    Dataset,
    Variable,
    count_sufficient_stats,
    forward_sample,
    joint_cell_counts,
)

from .oracles import forward_sample_reference


def assert_same_cases(data: Dataset, reference: np.ndarray) -> None:
    assert data.cases.dtype == np.int64
    assert data.cases.shape == reference.shape
    assert (data.cases == reference).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_cases", [0, 1, 5, 160, 20000])
def test_alarm_sample_matches_reference(alarm, n_cases, seed):
    assert_same_cases(
        forward_sample(alarm.net, n_cases, seed),
        forward_sample_reference(alarm.net, n_cases, seed),
    )


@st.composite
def cpt_rows(draw, arity):
    """A probability row, often with zeros; one non-zero weight gives a 1.0."""
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            min_size=arity,
            max_size=arity,
        )
    )
    if not any(weights):
        weights[draw(st.integers(0, arity - 1))] = 1.0
    row = np.array(weights) / sum(weights)
    return row


@st.composite
def small_nets(draw):
    """Up to five variables of arity 2-5 with up to three parents each,
    relabelled so that index order is not a topological order."""
    n = draw(st.integers(1, 5))
    arities = [draw(st.integers(2, 5)) for _ in range(n)]
    parents = [
        draw(st.lists(st.integers(0, i - 1), max_size=3, unique=True)) if i else []
        for i in range(n)
    ]
    perm = draw(st.permutations(range(n)))
    variables = [None] * n
    new_parents = [None] * n
    cpts = [None] * n
    for i in range(n):
        variables[perm[i]] = Variable(f"V{i}", arities[i])
        new_parents[perm[i]] = tuple(perm[p] for p in parents[i])
        q = int(np.prod([arities[p] for p in parents[i]]))
        cpts[perm[i]] = np.array([draw(cpt_rows(arities[i])) for _ in range(q)])
    return BayesNet(DagStructure(tuple(variables), tuple(new_parents)), tuple(cpts))


@settings(max_examples=150, deadline=None)
@given(small_nets(), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_small_net_sample_matches_reference(net, n_cases, seed):
    assert_same_cases(
        forward_sample(net, n_cases, seed),
        forward_sample_reference(net, n_cases, seed),
    )


def layouts(base: np.ndarray):
    """The same cases as C- and Fortran-ordered arrays, a nested list and a
    strided view into a larger array."""
    wide = np.full((2 * base.shape[0], 2 * base.shape[1]), -1, dtype=np.int64)
    wide[::2, ::2] = base
    return {
        "c_order": np.ascontiguousarray(base),
        "f_order": np.asfortranarray(base),
        "nested_list": base.tolist(),
        "strided_view": wide[::2, ::2],
    }


def test_dataset_layout_does_not_matter():
    variables = (Variable("A", 2), Variable("B", 3), Variable("C", 4))
    structure = DagStructure(variables, ((), (0,), (1, 0)))
    rng = np.random.default_rng(5)
    base = np.column_stack([rng.integers(0, v.arity, size=40) for v in variables])
    reference = Dataset(variables, base)
    ref_stats = count_sufficient_stats(structure, reference)
    for name, cases in layouts(base).items():
        data = Dataset(variables, cases)
        assert data == reference, name
        assert data.cases.dtype == np.int64, name
        assert not data.cases.flags.writeable, name
        assert data.cases.flags.f_contiguous, name
        stats = count_sufficient_stats(structure, data)
        for got, want in zip(stats, ref_stats):
            assert np.array_equal(got, want), name
        for component in ((2, 0), (1,), (0, 1, 2)):
            assert np.array_equal(
                joint_cell_counts(component, data), joint_cell_counts(component, reference)
            ), name


def test_dataset_copies_its_input():
    # A Fortran-ordered int64 array already has the stored layout; it must
    # still be copied, not aliased.
    variables = (Variable("A", 2), Variable("B", 2))
    cases = np.asfortranarray([[0, 1], [1, 0]], dtype=np.int64)
    data = Dataset(variables, cases)
    cases[0, 0] = 1
    assert data.cases.tolist() == [[0, 1], [1, 0]]
