"""Fair binary classifiers without the sensitive attribute at training time.

The training loop never sees the protected column.  Instead it penalizes the
absolute covariance between model predictions and a handful of user-named
"related" features (observable proxies for the protected group), with
per-feature weights living on the probability simplex and re-solved in
closed form every epoch.  The protected column is used only by the
evaluation metrics.
"""

from relfair.data import (
    Dataset,
    DatasetConfig,
    EncodedDataset,
    FeatureSchema,
    RelatedFeatureSet,
    TrainView,
    builtin_config,
    drop_features,
    encode,
    load_csv,
    load_dataset_config,
    load_from_config,
    parse_dataset_config,
    resolve_related,
    split,
)
from relfair.metrics import (
    FairnessReport,
    MetricUndefinedError,
    SeedResult,
    accuracy,
    aggregate,
    delta_dp,
    delta_eo,
    format_comparison_table,
    thresholded,
)
from relfair.models import (
    ModelParams,
    ModelSpec,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    raw_scores,
    save_checkpoint,
)
from relfair.objective import penalty_grad_yhat, related_penalty, total_objective
from relfair.stats import (
    CorrelationInterval,
    DegenerateVarianceError,
    fairness_bound,
    pearson,
    propagate_bound,
)
from relfair.synthetic import SyntheticSpec, generate, related_features, write_csv
from relfair.training import (
    VARIANTS,
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    TrainTrace,
    pretrain,
    run_seeds,
    run_single,
    train_fairrf,
    train_variant,
)
from relfair.weights import LambdaSolution, solve_lambda

__version__ = "0.1.0"

__all__ = [
    "CorrelationInterval",
    "Dataset",
    "DatasetConfig",
    "DegenerateVarianceError",
    "EncodedDataset",
    "FairnessReport",
    "FeatureSchema",
    "LambdaSolution",
    "MetricUndefinedError",
    "ModelParams",
    "ModelSpec",
    "RelatedFeatureSet",
    "SeedResult",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "TrainTrace",
    "TrainView",
    "TrainingDivergedError",
    "VARIANTS",
    "accuracy",
    "aggregate",
    "builtin_config",
    "delta_dp",
    "delta_eo",
    "drop_features",
    "encode",
    "fairness_bound",
    "format_comparison_table",
    "forward",
    "generate",
    "init_params",
    "load_checkpoint",
    "load_csv",
    "load_dataset_config",
    "load_from_config",
    "loss_and_grad",
    "parse_dataset_config",
    "pearson",
    "penalty_grad_yhat",
    "pretrain",
    "propagate_bound",
    "raw_scores",
    "related_features",
    "related_penalty",
    "resolve_related",
    "run_seeds",
    "run_single",
    "save_checkpoint",
    "solve_lambda",
    "split",
    "thresholded",
    "total_objective",
    "train_fairrf",
    "train_variant",
    "write_csv",
]
