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
checks the loss at every step and the parameters once, at its end.  A run
has one seed, ``ModelSpec.seed``, which its checkpoint stores: it draws the
split (the caller's), the init, the batch order and a variant's sampling.

Every Adam step updates the whole model at once: the parameters, their
gradient and Adam's two moments are each one flat vector laid out as
``ModelParams.flat``, so a step is five vector expressions whatever the
number of layers.  ``Adam`` evaluates them in two scratch vectors it keeps.

Each pass makes its buffers once, in its own frame: the batch's features and
labels, gathered with ``take`` into the leading rows of two arrays, and a
``models.Workspace`` for the forward, the backward and the gradient.  The
gradient ``loss_and_grad`` returns is a view of that workspace, so the step
consumes it before the next batch overwrites it.  A step rounds every value
as one with fresh arrays does, so every bit stays.

The penalized pass calls the penalty gradient without its argument checks:
``train_fairrf`` checks the regularized matrices once, and lambda where it is
set, by ``solve_lambda`` and again right after each refresh, before any step
uses it.  A pass maps lambda to the related columns once, and each step
gathers its batch's related columns from the batch it has just gathered,
which is still in cache.  Taking them instead from a block of the related
columns gathered once per run was slower on adult-shaped data: there the
block (14 of 102 columns over 27k rows) is 3 MB, and a batch's scattered
reads of it missed cache.

Bookkeeping forwards each split once per epoch with ``forward_loss`` (no
backward pass): the training-split predictions serve both the lambda refresh
and the trace's ``cls_loss``, the evaluation-split predictions serve the
accuracy, the evaluation objective and the fairness callback.  These
whole-split forwards run the layers in row blocks (``relfair.models``): the
hidden activations of a 10000-row split, 10000 x 64 floats, fall out of
cache, and a block's stay in it.  For the shapes the tests check (LR and the
SVM, and MLPs with hidden layers up to 248 wide, over several blocks), the
scores and losses are bit-identical to one unblocked pass; a layer wider
than 512 can round otherwise under another block split or BLAS thread
count (ROADMAP item 17).  The loop sees features and labels only; the
evaluation fairness metrics, which need the sensitive column, come from a
callback that ``train_cells`` builds.

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
    group_gap,
    group_rows,
)
from relfair.models import (
    ModelSpec,
    Workspace,
    forward,
    forward_loss,
    init_params,
    loss_and_grad,
)
from relfair.objective import _block_grad, related_penalty, total_objective
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
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
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


def _check_lambda(lam, epoch):
    """Raises ``TrainingDivergedError`` naming ``epoch`` if lambda left the simplex."""
    lam = np.asarray(lam, dtype=float)
    if len(lam) and not on_simplex(lam):
        raise TrainingDivergedError(f"epoch {epoch}: lambda left the simplex: {lam}")


@dataclasses.dataclass
class TrainTrace:
    records: list = dataclasses.field(default_factory=list)

    def append(self, record):
        _check_lambda(record.lam, record.epoch)
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
    """Adam on one parameter vector (a ``ModelParams.flat``), updated in place.

    A step evaluates its five vector expressions ufunc by ufunc, in the
    order written, in two scratch vectors kept from step to step.
    """

    def __init__(self, theta, lr):
        self.lr = lr
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._scratch = (np.empty_like(theta), np.empty_like(theta))
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        scale = self.lr * math.sqrt(1 - b2**self.t) / (1 - b1**self.t)
        m, v, (a, b) = self.m, self.v, self._scratch
        m *= b1
        m += np.multiply(1 - b1, grad, out=a)
        v *= b2
        v += np.multiply(np.multiply(1 - b2, grad, out=a), grad, out=a)
        np.multiply(scale, m, out=a)
        np.add(np.sqrt(v, out=b), ADAM_EPS, out=b)
        theta -= np.divide(a, b, out=a)


def _adam_pass(spec, params, opt, train, cfg, rng, where, penalty=None):
    """One shuffled pass of mini-batch Adam steps over ``train``, in place.

    ``penalty`` is None, for the classification loss alone, or
    ``(reg, related, lam)``: each batch's ``extra_grad_on_yhat`` is then
    ``cfg.eta`` times the penalty gradient on the batch's rows of ``reg``
    (None: of the batch's model inputs), which the caller has checked.  The
    batch, the step's layers and its gradient live in buffers made once, at
    the start of the pass, and lambda is mapped to the related columns once.
    The loss is checked at every step and the parameters once, after the last
    step; ``where`` names the epoch in either error.
    """
    order = rng.permutation(train.n)
    rows = min(cfg.batch_size, train.n)
    X_buf = np.empty((rows, train.X.shape[1]), dtype=train.X.dtype)
    y_buf = np.empty(rows, dtype=train.y.dtype)
    workspace = Workspace(params, rows)
    if penalty is not None:
        reg, related, lam = penalty
        col_lam = lam[related.owner]
    for start in range(0, train.n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        # idx is in range, and mode="clip" lets take write straight into out
        Xb = train.X.take(idx, axis=0, out=X_buf[: len(idx)], mode="clip")
        yb = train.y.take(idx, out=y_buf[: len(idx)], mode="clip")
        extra = None
        if penalty is not None:
            block_b = (Xb if reg is None else reg[idx])[:, related.columns]
            extra = lambda yhat_b: cfg.eta * _block_grad(block_b, col_lam, yhat_b)
        loss, grads = loss_and_grad(params, spec, Xb, yb, extra_grad_on_yhat=extra,
                                    workspace=workspace)
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
    rng = np.random.default_rng([spec.seed, 1])
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
    group codes, whose group rows it finds once; a metric is None when the
    split cannot support it.  Equals ``delta_eo`` and ``delta_dp`` bit for
    bit on the finite predictions the loop passes it.
    """
    s = evaluation.s

    def rows_or_none(mask, metric_name):
        try:
            return group_rows(s, mask, metric_name)
        except MetricUndefinedError:
            return None

    if s is None:
        per_metric = (None, None)
    else:
        y = np.asarray(evaluation.y, dtype=float)
        per_metric = (rows_or_none(y == 1.0, "delta_eo"), rows_or_none(None, "delta_dp"))

    def measure(yhat):
        return tuple(None if rows is None else group_gap(yhat, rows) for rows in per_metric)

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
    # checked once here: the theta-phase gradient makes no checks of its own
    reg_train = np.asarray(train.X if reg_train is None else reg_train, dtype=float)
    reg_eval = np.asarray(evaluation.X if reg_eval is None else reg_eval, dtype=float)
    if (reg_train.ndim != 2 or reg_eval.ndim != 2
            or len(reg_train) != train.n or len(reg_eval) != evaluation.n):
        raise ValueError("regularized-column matrices must be 2-d and align with the splits")
    penalized = related is not None and cfg.eta > 0
    batch_reg = None if reg_train is train.X else reg_train  # None: a batch's Xb

    lam = related.lambda0 if related is not None else np.zeros(0)

    def per_feature(reg, yhat):  # each related feature's score of yhat
        if related is None:
            return np.zeros(0)
        return related_penalty(reg, related, lam, yhat)[1]

    rng = np.random.default_rng([spec.seed, 2])
    opt = Adam(params.flat, cfg.learning_rate)
    trace = TrainTrace()
    history = []  # (eval_accuracy, eval_penalty, params snapshot)
    best_obj = np.inf
    stall = 0

    for epoch in range(cfg.max_epochs):
        # (a) theta phase: one full pass per lambda refresh
        penalty = (batch_reg, related, lam) if penalized else None
        _adam_pass(spec, params, opt, train, cfg, rng, f"epoch {epoch}", penalty)

        # (b) lambda refresh: exact minimizer given the current model; the
        # same forward of the training split gives the trace's cls_loss
        yhat_train, cls_loss = forward_loss(params, spec, train.X, train.y)
        scores = per_feature(reg_train, yhat_train)
        if related is not None and learn_lambda:  # checked before any step uses it
            lam = solve_lambda(cfg.eta * scores, cfg.beta).lam
            _check_lambda(lam, epoch)

        # (c) bookkeeping on one forward of the evaluation split
        penalty_total = float(lam @ scores)
        yhat_eval, eval_cls = forward_loss(params, spec, evaluation.X, evaluation.y)
        eval_penalty = float(lam @ per_feature(reg_eval, yhat_eval))
        eval_obj = total_objective(eval_cls, eval_penalty, lam, cfg)
        eval_acc = accuracy(yhat_eval, evaluation.y)
        eo, dp = fairness(yhat_eval) if fairness is not None else (None, None)
        trace.append(
            EpochRecord(
                epoch=epoch,
                cls_loss=cls_loss,
                penalty_total=penalty_total,
                per_feature=tuple(float(v) for v in scores),
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
    """One trained cell: its model, its trace, and the test split's predictions,
    labels and group codes (``test_s`` is None without a sensitive column)."""

    variant: str
    spec: ModelSpec
    params: object
    trace: TrainTrace
    related: object  # RelatedFeatureSet or None
    test_yhat: np.ndarray
    test_y: np.ndarray
    test_s: object

    def test_metrics(self):
        if self.test_s is None:
            raise ValueError("test split carries no sensitive attribute")
        return SeedResult(
            seed=self.spec.seed,
            accuracy=accuracy(self.test_yhat, self.test_y),
            delta_eo=delta_eo(self.test_yhat, self.test_y, self.test_s),
            delta_dp=delta_dp(self.test_yhat, self.test_s),
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
    """The ``TrainResult`` of one cell's fair loop on its group's encoded splits.

    ``pretrained`` maps the fields ``pretrain`` reads to its parameters and
    gains an entry the first time a key is met.
    """
    enc_train, enc_eval, enc_test = encoded
    rng = np.random.default_rng([spec.seed, 3])

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
    key = (spec, cfg.learning_rate, cfg.pretrain_epochs, cfg.batch_size)
    if key not in pretrained:
        pretrained[key] = pretrain(spec, init_params(spec), train_view, eval_view, cfg)
    fairness = _eval_fairness(enc_eval)
    runs = []
    for related in penalties:
        params, trace = train_fairrf(
            spec, pretrained[key], train_view, eval_view, related, cfg,
            learn_lambda=learn_lambda, reg_train=reg_train, reg_eval=reg_eval,
            fairness=fairness,
        )
        runs.append((params, trace, related))
    params, trace, related = runs[0]
    if variant == "top1":  # min keeps the first of equally fair runs
        params, trace, related = min(
            runs, key=lambda run: delta_dp(forward(run[0], spec, enc_eval.X), enc_eval.s)
        )
    return TrainResult(variant, spec, params, trace, related,
                       forward(params, spec, enc_test.X), enc_test.y, enc_test.s)


def train_cells(cells, train_raw, eval_raw, test_raw, related_names, model_kind, *,
                seed=0, hidden_dims=None, allow_sensitive_in_training=False):
    """Train ``(variant, cfg)`` cells on one split, sharing what they share.

    ``seed`` is the run's, the one the split was drawn with, and every
    ``ModelSpec`` carries it.  A variant only chooses what the fair loop
    regularizes.  The cells are grouped by encoding (``remove_related`` drops
    the related features, every other variant encodes all inputs), and a
    group is encoded once, when its first cell has passed its checks.  Within
    a group, ``pretrain`` runs once per model spec (seed included),
    ``learning_rate``, ``pretrain_epochs`` and ``batch_size``, the only fields
    it reads; every cell then runs ``train_fairrf`` from those parameters.
    ``top1`` runs the fair loop once per related feature and keeps the run
    with the smallest evaluation ``delta_dp`` (the first on a tie).

    Returns each cell's ``TrainResult`` or the exception it raised, in cell
    order.  Only one group's encoding is held at a time, and none on return.
    """
    splits = (train_raw, eval_raw, test_raw)
    outcomes = [None] * len(cells)
    groups = {}
    for index, (variant, _) in enumerate(cells):
        groups.setdefault(variant == "remove_related", []).append(index)
    for indices in groups.values():
        encoded = None  # the last group's encoding goes before this one is made
        pretrained = {}
        for index in indices:
            variant, cfg = cells[index]
            try:
                _check_cell(variant, eval_raw, allow_sensitive_in_training)
                if encoded is None:
                    encoded = encode_splits(variant, splits, related_names)
                spec = ModelSpec(kind=model_kind, input_dim=encoded[0].n_columns,
                                 hidden_dims=hidden_dims, seed=seed)
                outcomes[index] = _train_cell(variant, cfg, train_raw.schema, encoded, spec,
                                              pretrained, related_names)
            except Exception as exc:  # a failed cell is an outcome; callers decide
                # the frames of a traceback would keep an encoding alive
                outcomes[index] = exc.with_traceback(None)
    return outcomes


def train_variant(
    variant,
    train_raw,
    eval_raw,
    test_raw,
    related_names,
    model_kind,
    cfg,
    *,
    seed=0,
    hidden_dims=None,
    allow_sensitive_in_training=False,
):
    """Train one baseline/method variant on pre-split raw data: ``train_cells``
    of one cell; raises what the cell raised."""
    (outcome,) = train_cells(
        [(variant, cfg)], train_raw, eval_raw, test_raw, related_names, model_kind, seed=seed,
        hidden_dims=hidden_dims, allow_sensitive_in_training=allow_sensitive_in_training,
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# seeded experiment runs


def run_single(raw, related_names, cells, model_kind, seed, *, hidden_dims=None,
               allow_sensitive_in_training=False):
    """One seed: split with ``seed``, then ``train_cells`` on the ``(variant, cfg)``
    cells.  Returns each cell's ``TrainResult`` or exception, in cell order."""
    return train_cells(
        cells, *split(raw, seed=seed), related_names, model_kind, seed=seed,
        hidden_dims=hidden_dims, allow_sensitive_in_training=allow_sensitive_in_training,
    )


def run_seeds(raw, related_names, cells, model_kind, seeds, *, hidden_dims=None,
              allow_sensitive_in_training=False):
    """``run_single`` per seed; raises the first failure before the next seed.
    Returns one ``(FairnessReport, per-seed TrainResults)`` per cell, in cell order."""
    rows = [[] for _ in cells]  # per cell, each seed's (result, metrics)
    for seed in seeds:
        outcomes = run_single(raw, related_names, cells, model_kind, seed, hidden_dims=hidden_dims,
                              allow_sensitive_in_training=allow_sensitive_in_training)
        for row, outcome in zip(rows, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            row.append((outcome, outcome.test_metrics()))
    return [(aggregate([m for _, m in row]), [r for r, _ in row]) for row in rows]
