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
from relfair.models import ModelSpec
from relfair.synthetic import SyntheticSpec
from relfair.training import (
    Adam,
    FairRun,
    SeedData,
    TrainConfig,
    TrainResult,
    pretrain,
    run_seeds,
    run_single,
    train_fairrf,
    train_stack,
    train_variant,
)


PARAMETERS = {
    split: ("dataset", "seed"),
    resolve_related: ("schema", "encoded", "names"),
    Adam: ("theta", "lr"),
    accuracy: ("yhat", "y"),
    thresholded: ("yhat",),
    # the seed is the run's, and the run starts here
    train_variant: (
        "variant", "train_raw", "eval_raw", "test_raw", "related_names", "model_kind",
        "cfg", "seed", "hidden_dims", "allow_sensitive_in_training",
    ),
    # the lockstep layer: one stack of seeds, one stack of runs, one run
    pretrain: ("seeds", "cfg"),
    train_stack: ("rows",),
    train_fairrf: (
        "spec", "params", "train", "evaluation", "related", "cfg", "learn_lambda",
        "reg_train", "reg_eval", "fairness",
    ),
    # one job's cells over its seeds, each seed's outcomes; then those as reports
    run_single: (
        "raw", "related_names", "cells", "model_kind", "seeds", "hidden_dims",
        "allow_sensitive_in_training",
    ),
    run_seeds: (
        "raw", "related_names", "cells", "model_kind", "seeds", "hidden_dims",
        "allow_sensitive_in_training",
    ),
}

FIELDS = {
    SyntheticSpec: ("n", "label_echo", "seed"),
    RelatedFeatureSet: ("features", "column_groups"),
    # exactly the train: block; the seed lives in ModelSpec and its checkpoint
    TrainConfig: (
        "eta", "beta", "learning_rate", "pretrain_epochs", "max_epochs", "batch_size",
        "early_stop_patience",
    ),
    ModelSpec: ("kind", "input_dim", "hidden_dims", "seed"),
    # a seed's place in a stack, and a run of the fair loop
    SeedData: ("spec", "params", "train", "evaluation"),
    FairRun: ("related", "cfg", "learn_lambda", "reg_train", "reg_eval", "fairness"),
    # a trained cell keeps no encoded split: its test row comes from these
    TrainResult: (
        "variant", "spec", "params", "trace", "related", "test_yhat", "test_y", "test_s",
    ),
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
