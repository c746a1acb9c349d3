"""Fair binary classifiers without the sensitive attribute at training time.

The training loop never sees the protected column.  Instead it penalizes the
absolute covariance between model predictions and a handful of user-named
"related" features (observable proxies for the protected group), with
per-feature weights living on the probability simplex and re-solved in
closed form every epoch.  The protected column is used only by the
evaluation metrics.

The package namespace is lazy (PEP 562): ``import relfair`` loads no
submodule and not numpy.  Each public name is listed once in ``_EXPORTS``
under the submodule that defines it; the first ``relfair.<name>`` imports
that submodule and keeps the name here, and ``relfair.<submodule>`` imports
the submodule.  ``from relfair import *`` binds ``__all__``, which is every
name of the table, so it loads every submodule that exports one.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "data": (
        "Dataset", "DatasetConfig", "EncodedDataset", "FeatureSchema",
        "RelatedFeatureSet", "TrainView", "builtin_config", "drop_features",
        "encode", "load_csv", "load_dataset_config", "load_from_config",
        "parse_dataset_config", "resolve_related", "split",
    ),
    "metrics": (
        "FairnessReport", "MetricUndefinedError", "SeedResult", "accuracy",
        "aggregate", "delta_dp", "delta_eo", "format_comparison_table", "thresholded",
    ),
    "models": (
        "ModelParams", "ModelSpec", "ParamStack", "forward", "init_params",
        "load_checkpoint", "loss_and_grad", "raw_scores", "save_checkpoint",
    ),
    "objective": ("penalty_grad_yhat", "related_penalty", "total_objective"),
    "stats": (
        "CorrelationInterval", "DegenerateVarianceError", "fairness_bound",
        "pearson", "propagate_bound",
    ),
    "synthetic": ("SyntheticSpec", "generate", "related_features", "write_csv"),
    "training": (
        "VARIANTS", "FairRun", "SeedData", "TrainConfig", "TrainingDivergedError",
        "TrainResult", "TrainTrace", "pretrain", "run_seeds", "run_single", "train_fairrf",
        "train_stack", "train_variant",
    ),
    "weights": ("LambdaSolution", "solve_lambda"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
