"""Training loops: classification pretraining and the alternating fair loop.

The fair loop alternates two phases per epoch.  First the model parameters
take one full shuffled pass of Adam steps against
``L_cls + eta * sum_j lambda_j R_j`` with the penalty and its gradient
computed on the current mini-batch (means re-estimated per batch).  The
penalty gradient is handed to ``loss_and_grad`` as a function of the
predictions, so each step forwards its batch once.  Then, with the model
fixed, the feature weights are refreshed in closed form:
``lambda = solve_lambda(eta * R, beta)`` with R measured on the full training
split, which is the exact minimizer of the lambda-part of the objective.
Pretraining runs the same pass on the classification loss alone.  Each pass
checks the loss at every step and the parameters once, at its end.  Batch
order and parameter init are fully determined by the seed.

Every Adam step updates the whole model at once: the parameters, their
gradient and Adam's two moments are each one flat vector laid out as
``ModelParams.flat``, so a step is five vector expressions whatever the
number of layers.

Bookkeeping forwards each split once per epoch with ``forward_loss`` (no
backward pass): the training-split predictions serve both the lambda refresh
and the trace's ``cls_loss``, the evaluation-split predictions serve the
accuracy, the evaluation objective and the fairness callback.  These
whole-split forwards run the layers in row blocks (``relfair.models``): the
hidden activations of a 10000-row split, 10000 x 64 floats, fall out of
cache, and a block's stay in it.  The scores and losses are bit-identical to
one unblocked pass.  The loop sees features and labels only; the evaluation
fairness metrics, which need the sensitive column, come from a callback that
``train_cells`` builds.

Model selection: among epochs whose evaluation-split penalty is no worse than
110% of the final epoch's penalty, the checkpoint with the best evaluation
accuracy wins.  Reported metrics always come from the held-out test split.
"""

import dataclasses
import json
import math
import numbers

import numpy as np

from relfair.data import (
    RelatedFeatureSet,
    drop_features,
    encode,
    resolve_related,
    split,
)
from relfair.metrics import (
    MetricUndefinedError,
    SeedResult,
    accuracy,
    aggregate,
    delta_dp,
    delta_eo,
)
from relfair.models import ModelSpec, forward, forward_loss, init_params, loss_and_grad
from relfair.objective import penalty_grad_yhat, related_penalty, total_objective
from relfair.weights import on_simplex, solve_lambda

VARIANTS = (
    "vanilla",
    "fairrf",
    "constrain_s",
    "remove_related",
    "fixed_lambda",
    "constrain_all",
    "random_related",
    "top1",
    "noisy",
)

MIN_IMPROVEMENT = 1e-5  # outer-loop convergence threshold on eval objective
PRETRAIN_PATIENCE = 3
SELECTION_PENALTY_SLACK = 1.10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite during training."""


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.3
    beta: float = 0.5
    learning_rate: float = 0.001
    pretrain_epochs: int = 10
    max_epochs: int = 100
    batch_size: int = 256
    seed: int = 0
    early_stop_patience: int = 5

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kind, noun = ((numbers.Integral, "an integer") if field.type is int
                          else (numbers.Real, "a finite number"))
            # false for nan and +-inf; unlike math.isfinite, a huge int cannot overflow
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not -math.inf < value < math.inf):
                raise ValueError(f"{field.name} must be {noun}, got {value!r}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for field in ("pretrain_epochs", "seed"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")
        for field in ("max_epochs", "batch_size", "early_stop_patience"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")


# ---------------------------------------------------------------------------
# trace


@dataclasses.dataclass(frozen=True)
class EpochRecord:
    epoch: int
    cls_loss: float
    penalty_total: float
    per_feature: tuple
    lam: tuple
    eval_accuracy: float
    eval_delta_eo: object  # None when the eval split has no usable groups
    eval_delta_dp: object
    eval_objective: float


TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(EpochRecord))


@dataclasses.dataclass
class TrainTrace:
    records: list = dataclasses.field(default_factory=list)

    def append(self, record):
        lam = np.asarray(record.lam, dtype=float)
        if len(lam) and not on_simplex(lam):
            raise TrainingDivergedError(
                f"epoch {record.epoch}: lambda left the simplex: {lam}"
            )
        self.records.append(record)

    def to_jsonl(self):
        lines = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in self.records]
        return "\n".join(lines) + ("\n" if self.records else "")

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @property
    def final_lambda(self):
        return np.asarray(self.records[-1].lam) if self.records else None


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam on one parameter vector (a ``ModelParams.flat``), updated in place."""

    def __init__(self, theta, lr):
        self.lr = lr
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        scale = self.lr * np.sqrt(1 - b2**self.t) / (1 - b1**self.t)
        m, v = self.m, self.v
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad * grad
        theta -= scale * m / (np.sqrt(v) + ADAM_EPS)


def _adam_pass(spec, params, opt, train, cfg, rng, where, extra_for=None):
    """One shuffled pass of mini-batch Adam steps over ``train``, in place.

    ``extra_for(idx, Xb)`` gives a batch's ``extra_grad_on_yhat`` for
    ``loss_and_grad`` (None: the classification loss alone).  The loss is
    checked at every step and the parameters once, after the last step;
    ``where`` names the epoch in either error.
    """
    order = rng.permutation(train.n)
    for start in range(0, train.n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        Xb = train.X[idx]
        extra = None if extra_for is None else extra_for(idx, Xb)
        loss, grads = loss_and_grad(params, spec, Xb, train.y[idx], extra_grad_on_yhat=extra)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at {where}")
        opt.step(params.flat, grads.flat)
    if not params.all_finite():
        raise TrainingDivergedError(f"non-finite parameters at {where}")


# ---------------------------------------------------------------------------
# pretraining


def pretrain(spec, params, train, evaluation, cfg):
    """Mini-batch Adam on the classification loss alone.

    Runs for cfg.pretrain_epochs or until the evaluation loss stops improving
    for PRETRAIN_PATIENCE consecutive epochs.  pretrain_epochs=0 is a no-op.
    """
    params = params.copy()
    if cfg.pretrain_epochs == 0:
        return params
    rng = np.random.default_rng([cfg.seed, 1])
    opt = Adam(params.flat, cfg.learning_rate)
    best_eval = np.inf
    stall = 0
    for epoch in range(cfg.pretrain_epochs):
        _adam_pass(spec, params, opt, train, cfg, rng, f"pretrain epoch {epoch}")
        _, eval_loss = forward_loss(params, spec, evaluation.X, evaluation.y)
        if not np.isfinite(eval_loss):
            raise TrainingDivergedError(
                f"non-finite loss at pretrain epoch {epoch} (eval)"
            )
        if eval_loss < best_eval - MIN_IMPROVEMENT:
            best_eval = eval_loss
            stall = 0
        else:
            stall += 1
            if stall >= PRETRAIN_PATIENCE:
                break
    return params


# ---------------------------------------------------------------------------
# the alternating fair loop


def _eval_fairness(evaluation):
    """Trace callback: soft ``(delta_eo, delta_dp)`` of evaluation predictions.

    Built outside the training loop from the evaluation split's labels and
    group codes; a metric is None when the split cannot support it.
    """
    y, s = evaluation.y, evaluation.s

    def measure(yhat):
        if s is None:
            return None, None
        try:
            eo = delta_eo(yhat, y, s)
        except MetricUndefinedError:
            eo = None
        try:
            dp = delta_dp(yhat, s)
        except MetricUndefinedError:
            dp = None
        return eo, dp

    return measure


def train_fairrf(spec, params, train, evaluation, related, cfg, *,
                 learn_lambda=True, reg_train=None, reg_eval=None, fairness=None):
    """Alternate Adam passes on the penalized loss with closed-form lambda.

    ``train`` and ``evaluation`` are ``TrainView``s: features and labels.
    ``related`` may be None only for penalty-free runs (eta must then be 0).
    ``learn_lambda=False`` keeps lambda uniform (``related.lambda0``) throughout.
    ``reg_train``/``reg_eval`` override the matrices the penalty reads its
    regularized columns from; they default to the model inputs themselves.
    The sensitive-aware baseline passes the group column here so the penalty
    machinery is shared, while the model inputs stay untouched.
    ``fairness`` maps the evaluation predictions to the trace's
    ``(eval_delta_eo, eval_delta_dp)``; without it both are None.
    """
    params = params.copy()
    if related is None and cfg.eta != 0:
        raise ValueError("a related feature set is required unless eta=0")
    if reg_train is None:
        reg_train = train.X
    if reg_eval is None:
        reg_eval = evaluation.X
    if len(reg_train) != train.n or len(reg_eval) != evaluation.n:
        raise ValueError("regularized-column matrices must align with the splits")
    penalized = related is not None and cfg.eta > 0
    reg_is_input = reg_train is train.X  # then a batch's Xb is its reg rows

    lam = related.lambda0 if related is not None else np.zeros(0)
    rng = np.random.default_rng([cfg.seed, 2])
    opt = Adam(params.flat, cfg.learning_rate)
    trace = TrainTrace()
    history = []  # (eval_accuracy, eval_penalty, params snapshot)
    best_obj = np.inf
    stall = 0

    extra_for = None
    if penalized:
        def extra_for(idx, Xb):  # reads the lam of the current epoch
            reg_b = Xb if reg_is_input else reg_train[idx]
            return lambda yhat_b: cfg.eta * penalty_grad_yhat(reg_b, related, lam, yhat_b)

    for epoch in range(cfg.max_epochs):
        # (a) theta phase: one full pass per lambda refresh
        _adam_pass(spec, params, opt, train, cfg, rng, f"epoch {epoch}", extra_for)

        # (b) lambda refresh: exact minimizer given the current model; the
        # same forward of the training split gives the trace's cls_loss
        yhat_train, cls_loss = forward_loss(params, spec, train.X, train.y)
        if related is not None:
            _, per_feature = related_penalty(reg_train, related, lam, yhat_train)
            if learn_lambda:
                lam = solve_lambda(cfg.eta * per_feature, cfg.beta).lam
        else:
            per_feature = np.zeros(0)

        # (c) bookkeeping on one forward of the evaluation split
        penalty_total = float(lam @ per_feature)
        yhat_eval, eval_cls = forward_loss(params, spec, evaluation.X, evaluation.y)
        if related is not None:
            eval_penalty, _ = related_penalty(reg_eval, related, lam, yhat_eval)
        else:
            eval_penalty = 0.0
        eval_obj = total_objective(eval_cls, eval_penalty, lam, cfg)
        eval_acc = accuracy(yhat_eval, evaluation.y)
        eo, dp = fairness(yhat_eval) if fairness is not None else (None, None)
        trace.append(
            EpochRecord(
                epoch=epoch,
                cls_loss=cls_loss,
                penalty_total=penalty_total,
                per_feature=tuple(float(v) for v in per_feature),
                lam=tuple(float(v) for v in lam),
                eval_accuracy=eval_acc,
                eval_delta_eo=eo,
                eval_delta_dp=dp,
                eval_objective=eval_obj,
            )
        )
        history.append((eval_acc, eval_penalty, params.copy()))

        # (d) convergence on the evaluation objective
        if eval_obj < best_obj - MIN_IMPROVEMENT:
            best_obj = eval_obj
            stall = 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break

    # model selection: best eval accuracy among epochs whose penalty is
    # within slack of the final one (the final epoch always qualifies)
    final_penalty = history[-1][1]
    allowed = final_penalty * SELECTION_PENALTY_SLACK + 1e-12
    chosen = max(
        (h for h in history if h[1] <= allowed),
        key=lambda h: h[0],
    )
    return chosen[2], trace


# ---------------------------------------------------------------------------
# variants


@dataclasses.dataclass
class TrainResult:
    variant: str
    spec: ModelSpec
    params: object
    trace: TrainTrace
    encoded_train: object
    encoded_eval: object
    encoded_test: object
    related: object  # RelatedFeatureSet or None

    @property
    def regularized(self):
        """Names actually regularized (empty for penalty-free variants)."""
        return () if self.related is None else self.related.features

    def predictions(self, which="test"):
        enc = getattr(self, f"encoded_{which}")
        return forward(self.params, self.spec, enc.X)

    def test_metrics(self, seed):
        enc = self.encoded_test
        yhat = self.predictions("test")
        if enc.s is None:
            raise ValueError("test split carries no sensitive attribute")
        return SeedResult(
            seed=seed,
            accuracy=accuracy(yhat, enc.y),
            delta_eo=delta_eo(yhat, enc.y, enc.s),
            delta_dp=delta_dp(yhat, enc.s),
        )


def _variant_related_names(variant, schema, related_names, rng):
    """Which feature names the variant regularizes (None = no penalty)."""
    inputs = [f.name for f in schema if f.role == "input"]
    if variant in ("vanilla", "remove_related"):
        return None
    if variant in ("fairrf", "fixed_lambda", "top1"):
        return list(related_names)
    if variant == "constrain_all":
        return inputs
    if variant == "random_related":
        k = min(len(related_names), len(inputs))
        return list(rng.choice(inputs, size=k, replace=False))
    # noisy: one related feature swapped for a random non-related input
    names = list(related_names)
    outside = [n for n in inputs if n not in names]
    if not outside:
        raise ValueError("noisy variant needs at least one non-related input")
    names[int(rng.integers(len(names)))] = str(rng.choice(outside))
    return names


def encode_splits(variant, splits, related_names):
    """Encode (train, *others) as the variant sees them, train first.

    ``remove_related`` drops the related features before encoding; every
    other variant encodes all inputs.
    """
    if variant == "remove_related":
        splits = [drop_features(d, related_names) for d in splits]
    train, *others = splits
    return encode(train, others)


def check_variant(variant, where=None):
    """``variant`` if it is one of VARIANTS; ``where``, if given, leads the error."""
    if variant not in VARIANTS:
        lead = f"{where}: " if where else ""
        raise ValueError(f"{lead}unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


def _check_cell(variant, eval_raw, allow_sensitive_in_training):
    """The checks a variant passes before anything is encoded for it."""
    check_variant(variant)
    if variant == "top1" and not any(f.role == "sensitive" for f in eval_raw.schema):
        raise ValueError("top1 selects by evaluation fairness and needs "
                         "the sensitive attribute on the eval split")
    if variant == "constrain_s" and not allow_sensitive_in_training:
        raise ValueError(
            "constrain_s trains against the sensitive attribute; pass "
            "allow_sensitive_in_training=True to opt in"
        )


def _train_cell(variant, cfg, raw_schema, encoded, spec, pretrained, related_names):
    """The fair loop of one cell on its group's encoded splits.

    ``pretrained`` maps the fields ``pretrain`` reads to its parameters and
    gains an entry the first time a key is met.
    """
    enc_train, enc_eval, enc_test = encoded
    rng = np.random.default_rng([cfg.seed, 3])

    # the related sets to regularize, one fair-loop run each
    reg_train = reg_eval = None  # None: the penalty reads the model inputs
    learn_lambda = variant != "fixed_lambda"
    if variant == "constrain_s":
        if enc_train.s is None or enc_eval.s is None:
            raise ValueError("constrain_s requires the sensitive attribute")
        penalties = [RelatedFeatureSet(features=("__sensitive__",), column_groups=((0,),))]
        reg_train = enc_train.s.astype(float)[:, None]
        reg_eval = enc_eval.s.astype(float)[:, None]
        learn_lambda = False  # its one weight stays exactly 1.0
    else:
        names = _variant_related_names(variant, raw_schema, related_names, rng)
        if names is None:
            cfg = dataclasses.replace(cfg, eta=0.0)
            penalties = [None]
        else:
            related = resolve_related(raw_schema, enc_train, names)
            penalties = [related]
            if variant == "top1":  # one run per related feature alone
                penalties = [
                    RelatedFeatureSet(features=(name,), column_groups=(cols,))
                    for name, cols in zip(related.features, related.column_groups)
                ]

    train_view = enc_train.train_view()
    eval_view = enc_eval.train_view()
    key = (spec, cfg.seed, cfg.learning_rate, cfg.pretrain_epochs, cfg.batch_size)
    if key not in pretrained:
        pretrained[key] = pretrain(spec, init_params(spec), train_view, eval_view, cfg)
    fairness = _eval_fairness(enc_eval)
    results = []
    for related in penalties:
        params, trace = train_fairrf(
            spec, pretrained[key], train_view, eval_view, related, cfg,
            learn_lambda=learn_lambda, reg_train=reg_train, reg_eval=reg_eval,
            fairness=fairness,
        )
        results.append(TrainResult(
            variant, spec, params, trace, enc_train, enc_eval, enc_test, related
        ))
    if variant != "top1":
        return results[0]
    # min keeps the first of equally fair runs
    return min(results, key=lambda r: delta_dp(r.predictions("eval"), enc_eval.s))


def train_cells(cells, train_raw, eval_raw, test_raw, related_names, model_kind, *,
                hidden_dims=None, allow_sensitive_in_training=False):
    """Train ``(variant, cfg)`` cells on one split, sharing what they share.

    A variant only chooses what the fair loop regularizes.  The cells are
    grouped by encoding (``remove_related`` drops the related features,
    every other variant encodes all inputs), and a group is encoded once,
    when its first cell has passed its checks.  Within a group, ``pretrain``
    runs once per model spec, ``seed``, ``learning_rate``,
    ``pretrain_epochs`` and ``batch_size``, the only fields it reads; every
    cell then runs ``train_fairrf`` from those parameters.  ``top1`` runs
    the fair loop once per related feature and keeps the run with the
    smallest evaluation ``delta_dp`` (the first on a tie).

    Yields ``(index into cells, TrainResult or the exception the cell
    raised)`` one cell at a time, group by group.  Only one group's encoding
    is held at a time, as long as the caller keeps no result past its turn.
    """
    splits = (train_raw, eval_raw, test_raw)
    groups = {}
    for index, (variant, _) in enumerate(cells):
        groups.setdefault(variant == "remove_related", []).append(index)
    for indices in groups.values():
        # drop the last group's encoding, which its last outcome holds too
        encoded = outcome = None
        pretrained = {}
        for index in indices:
            variant, cfg = cells[index]
            try:
                _check_cell(variant, eval_raw, allow_sensitive_in_training)
                if encoded is None:
                    encoded = encode_splits(variant, splits, related_names)
                spec = ModelSpec(kind=model_kind, input_dim=encoded[0].n_columns,
                                 hidden_dims=hidden_dims, seed=cfg.seed)
                outcome = _train_cell(variant, cfg, train_raw.schema, encoded, spec,
                                      pretrained, related_names)
            except Exception as exc:  # a failed cell is an outcome; callers decide
                # the frames of a traceback would keep an encoding alive
                outcome = exc.with_traceback(None)
            yield index, outcome


def _one(outcomes):
    """The result of a one-cell run; raises what the cell raised."""
    ((_, outcome),) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def train_variant(
    variant,
    train_raw,
    eval_raw,
    test_raw,
    related_names,
    model_kind,
    cfg,
    *,
    hidden_dims=None,
    allow_sensitive_in_training=False,
):
    """Train one baseline/method variant on pre-split raw data: ``train_cells``
    of one cell."""
    return _one(train_cells(
        [(variant, cfg)], train_raw, eval_raw, test_raw, related_names, model_kind,
        hidden_dims=hidden_dims, allow_sensitive_in_training=allow_sensitive_in_training,
    ))


# ---------------------------------------------------------------------------
# seeded experiment runs


def run_seed(raw, related_names, cells, model_kind, seed, *, hidden_dims=None,
             allow_sensitive_in_training=False):
    """One seed of every ``(variant, cfg)`` cell: split once, then ``train_cells``.

    Every cell's ``cfg.seed`` is replaced by ``seed``.  Yields what
    ``train_cells`` yields.
    """
    cells = [(variant, dataclasses.replace(cfg, seed=seed)) for variant, cfg in cells]
    yield from train_cells(
        cells, *split(raw, seed=seed), related_names, model_kind,
        hidden_dims=hidden_dims, allow_sensitive_in_training=allow_sensitive_in_training,
    )


def run_single(
    raw,
    related_names,
    variant,
    model_kind,
    cfg,
    seed,
    *,
    hidden_dims=None,
    allow_sensitive_in_training=False,
):
    """One seed: re-split, train the variant, measure the test split."""
    result = _one(run_seed(
        raw, related_names, [(variant, cfg)], model_kind, seed,
        hidden_dims=hidden_dims, allow_sensitive_in_training=allow_sensitive_in_training,
    ))
    return result, result.test_metrics(seed)


def run_seeds(raw, related_names, variant, model_kind, cfg, seeds, **kwargs):
    """Independent runs over seeds; returns (FairnessReport, per-seed results)."""
    results, metrics = [], []
    for seed in seeds:
        result, m = run_single(
            raw, related_names, variant, model_kind, cfg, seed, **kwargs
        )
        results.append(result)
        metrics.append(m)
    return aggregate(metrics), results
