"""serialize_network refuses what parse_network could not read back."""

import numpy as np
import pytest

from bnscore import (
    BayesNet,
    DagStructure,
    ModelError,
    Variable,
    parse_network,
    serialize_network,
)


def parent_and_child(parent="P", child="A", labels=("a", "b")):
    vs = (Variable(parent, 2), Variable(child, 2, labels))
    half = np.full((1, 2), 0.5)
    return BayesNet(DagStructure(vs, ((), (0,))), (half, np.repeat(half, 2, axis=0)))


@pytest.mark.parametrize(
    "kwargs, variable, token",
    [
        (dict(labels=("x y", "b")), "A", "x y"),
        (dict(child="A B"), "A B", "A B"),
        (dict(parent="P=Q"), "P=Q", "="),
        (dict(labels=("", "b")), "A", "''"),
    ],
    ids=["label-with-space", "name-with-space", "parent-name-with-equals", "empty-label"],
)
def test_unwritable_token_is_a_model_error(kwargs, variable, token):
    with pytest.raises(ModelError) as err:
        serialize_network(parent_and_child(**kwargs))
    assert f"variable {variable!r}" in str(err.value)
    assert token in str(err.value)


def test_equals_sign_is_fine_outside_parent_names():
    net = parent_and_child(child="A=B", labels=("a=1", "b"))
    assert parse_network(serialize_network(net)).net == net
