"""Pinned parameter and field names of the library's settable surfaces.

Each value listed here has a caller outside the tests; anything fixed by the
library (generator strengths, split ratios, Adam's moment constants, the 0.5
decision threshold, the uniform starting weights) is a module constant or a
derived property.  A new knob has to change this file.
"""

import dataclasses
import inspect

import pytest

from relfair.cli import ExperimentConfig
from relfair.data import RelatedFeatureSet, resolve_related, split
from relfair.metrics import accuracy, thresholded
from relfair.synthetic import SyntheticSpec
from relfair.training import Adam


PARAMETERS = {
    split: ("dataset", "seed"),
    resolve_related: ("schema", "encoded", "names"),
    Adam: ("theta", "lr"),
    accuracy: ("yhat", "y"),
    thresholded: ("yhat",),
}

FIELDS = {
    SyntheticSpec: ("n", "label_echo", "seed"),
    RelatedFeatureSet: ("features", "column_groups"),
    ExperimentConfig: (
        "dataset", "variant", "model", "hidden_dims", "related", "seeds",
        "output_dir", "allow_sensitive_in_training", "train",
    ),
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__qualname__)
def test_parameters(fn):
    assert tuple(inspect.signature(fn).parameters) == PARAMETERS[fn]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__qualname__)
def test_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


def test_starting_weights_are_uniform():
    related = RelatedFeatureSet(features=("a", "b", "c", "d"), column_groups=((0,),) * 4)
    assert related.lambda0.tolist() == [0.25] * 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        related.lambda0 = [1.0, 0.0, 0.0, 0.0]
