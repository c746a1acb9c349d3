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

Stacks: ``train_stack`` runs the fair loops of several runs in lockstep, and
``train_cells`` hands it every run of the cells that share an encoding and a
pretrained model (the same spec, ``learning_rate``, ``pretrain_epochs`` and
``batch_size``): the vanilla and fairrf cells of a ``compare``, every
(eta, beta) cell of a ``sweep`` seed, each per-feature run of ``top1``.  Such
runs draw the same batch order from ``[seed, 2]`` every epoch, so a batch is
gathered once, forwarded and backpropagated for all k runs by one
``loss_and_grad`` call over a ``models.ParamStack``, and stepped by one Adam
step over the stack's ``(k, P)`` parameter block.  Each epoch then forwards
each split once for all k runs and ends in one ``_Member.step`` per run, its
lambda refresh and bookkeeping; each distinct related block of a split is
gathered once per stack.  Each run keeps its own lambda, eta and beta,
trace, history, early stop (``_Plateau``, as ``pretrain``'s) and model
selection.  A run that stops or fails (a non-finite loss or parameter, or a
step that raises) leaves through ``_Stack.drop``, the one exit: it takes
the run's row out of the parameter block and Adam's moments and records
its outcome, and the others go on.  ``pretrain`` is a stack of one, and so
is a single fair run, ``train_fairrf``; there is no other fair loop.

A run's bits do not depend on its stack.  Its products are slices of
stacked ``np.matmul`` calls, and numpy hands each slice to the BLAS call the
two-dimensional product makes, with the same strides; the elementwise
ufuncs are the same; each sum over rows runs along a row of a ``(k, n)``
block, as the one-dimensional sum does; the penalty's einsums run one run
at a time, since their order in a stacked form is unchecked; and an Adam
step is elementwise, with the one ``t`` every run in the stack shares
(they all started together).  ``tests/test_lockstep.py`` checks each run of
a stack against the run alone, byte for byte.

Every Adam step updates the whole model at once: the parameters, their
gradient and Adam's two moments are each one flat vector laid out as
``ModelParams.flat`` (a row of the block, in a stack), so a step is five
vector expressions whatever the number of layers.  ``Adam`` evaluates them
in two scratch arrays it keeps.

Each pass makes its buffers once, in its own frame: the batch's features and
labels, gathered with ``take`` into the leading rows of two arrays, and a
``models.Workspace`` for the forward, the backward and the gradient.  The
gradient ``loss_and_grad`` returns is a view of that workspace, so the step
consumes it before the next batch overwrites it.  A step rounds every value
as one with fresh arrays does, so every bit stays.

The penalized pass calls the penalty gradient without its argument checks:
``_Member`` checks the regularized matrices once per run, and lambda where
it is set, by ``solve_lambda`` and again right after each refresh, before
any step uses it.  A pass maps each run's lambda to its related columns
once, and each step gathers each distinct related block (its columns of
the model inputs, or of the group column for ``constrain_s``) from the batch
it has just gathered, which is still in cache, with its column means, once
for every run that reads it.  Taking a batch's rows instead from the
split's block, gathered once per run, was slower on adult-shaped data: there
the block (14 of 102 columns over 27k rows) is 3 MB, and a batch's scattered
reads of it missed cache.

Each epoch's step forwards each split once with ``forward_loss`` (no
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
    ModelParams,
    ModelSpec,
    ParamStack,
    Workspace,
    forward,
    forward_loss,
    init_params,
    loss_and_grad,
)
from relfair.objective import _block_grad, _per_feature, _related_block, total_objective
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
    """Adam on one parameter vector (a ``ModelParams.flat``), or on a stack's
    ``(k, P)`` block, updated in place.

    A step evaluates its five vector expressions ufunc by ufunc, in the
    order written, in two scratch arrays kept from step to step.  Every row
    of a block has taken the same steps, so one ``t`` serves them all.
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

    def keep(self, rows):
        """Keep only the moments of the block's ``rows``, in that order."""
        self.m, self.v = self.m[rows], self.v[rows]
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))


class _Stack:
    """A lockstep stack's rows: its ``ParamStack`` ``params``, its ``Adam``
    ``opt`` and ``runs[row]``, the number (0 to k - 1, as made) of the run
    behind each row.  ``outcomes`` holds each run's outcome by its number,
    None while it is in the stack; ``drop`` is the one way a run leaves."""

    def __init__(self, params, lr, k):
        self.params = ParamStack.of(params, k)
        self.opt = Adam(self.params.flat, lr)
        self.runs = list(range(k))
        self.outcomes = [None] * k

    def drop(self, gone):
        """The rows of ``gone``, ``{row: outcome}``, leave the parameter block
        and Adam's moments, and their runs' outcomes are recorded.  Returns
        the rows that stay, in order, as they were numbered before."""
        keep = [row for row in range(len(self.runs)) if row not in gone]
        if gone:
            for row, outcome in gone.items():
                self.outcomes[self.runs[row]] = outcome
            self.params = ParamStack(self.params.flat[keep], self.params.shapes)
            self.opt.keep(keep)
            self.runs = [self.runs[row] for row in keep]
        return keep


def _adam_pass(spec, stack, train, cfg, rng, where, penalties=None):
    """One shuffled pass of mini-batch Adam steps over ``train``, in place,
    for every row of the ``_Stack`` ``stack`` at once.

    ``penalties`` is None, for the classification loss alone, or one entry
    per row: None, or ``(eta, reg, related, lam)``, and that row's
    ``extra_grad_on_yhat`` is then ``eta`` times the penalty gradient on the
    batch's rows of ``reg`` (None: of the batch's model inputs), which the
    caller has checked.  The batch, each distinct related block of it, the
    step's layers and its gradient live in buffers made once per pass and
    batch, and lambda is mapped to the related columns once.  Each row's
    loss is checked at every step and its parameters once, after the last
    step; a row that fails either leaves ``stack`` with a
    ``TrainingDivergedError`` that names ``where``.
    """
    order = rng.permutation(train.n)
    rows = min(cfg.batch_size, train.n)
    X_buf = np.empty((rows, train.X.shape[1]), dtype=train.X.dtype)
    y_buf = np.empty(rows, dtype=train.y.dtype)
    workspace = Workspace(stack.params, rows)
    pens = []  # per row: None, or (eta, reg, columns, lambda per column, block key)
    for penalty in penalties or [None] * stack.params.k:
        if penalty is None:
            pens.append(None)
            continue
        eta, reg, related, lam = penalty
        key = (id(reg), related.columns.tobytes())  # runs with equal keys share a block
        pens.append((eta, reg, related.columns, lam[related.owner], key))

    for start in range(0, train.n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        # idx is in range, and mode="clip" lets take write straight into out
        Xb = train.X.take(idx, axis=0, out=X_buf[: len(idx)], mode="clip")
        yb = train.y.take(idx, out=y_buf[: len(idx)], mode="clip")
        extra = None
        if any(pens):
            blocks = {}  # each distinct related block of the batch and its column means

            def extra(yhat):
                out = []
                for pen, yhat_b in zip(pens, yhat):
                    if pen is None:
                        out.append(None)
                        continue
                    eta, reg, columns, col_lam, key = pen
                    if key not in blocks:
                        blocks[key] = _related_block(Xb if reg is None else reg[idx], columns)
                    out.append(eta * _block_grad(*blocks[key], col_lam, yhat_b))
                return out

        loss, grads = loss_and_grad(stack.params, spec, Xb, yb, extra_grad_on_yhat=extra,
                                    workspace=workspace)
        grad = grads.flat
        diverged = {j: TrainingDivergedError(f"non-finite loss at {where}")
                    for j, value in enumerate(loss.tolist()) if not math.isfinite(value)}
        if diverged:
            keep = stack.drop(diverged)
            if not keep:
                return
            pens, grad = [pens[j] for j in keep], grad[keep]
            workspace = Workspace(stack.params, rows)
        stack.opt.step(stack.params.flat, grad)
    finite = np.isfinite(stack.params.flat).all(axis=1).tolist()
    stack.drop({j: TrainingDivergedError(f"non-finite parameters at {where}")
                for j, ok in enumerate(finite) if not ok})


class _Plateau:
    """Early stop: ``stalled(value)`` is True once ``patience`` values in a
    row have not gone below the best so far by more than ``MIN_IMPROVEMENT``."""

    def __init__(self, patience):
        self.patience, self.best, self.stall = patience, np.inf, 0

    def stalled(self, value):
        if value < self.best - MIN_IMPROVEMENT:
            self.best, self.stall = value, 0
        else:
            self.stall += 1
        return self.stall >= self.patience


# ---------------------------------------------------------------------------
# pretraining


def pretrain(spec, params, train, evaluation, cfg):
    """Mini-batch Adam on the classification loss alone.

    Runs for cfg.pretrain_epochs or until the evaluation loss stops improving
    for PRETRAIN_PATIENCE consecutive epochs.  pretrain_epochs=0 is a no-op.
    """
    stack = _Stack(params, cfg.learning_rate, 1)  # a stack of one, which _adam_pass takes
    rng = np.random.default_rng([spec.seed, 1])
    plateau = _Plateau(PRETRAIN_PATIENCE)
    for epoch in range(cfg.pretrain_epochs):
        _adam_pass(spec, stack, train, cfg, rng, f"pretrain epoch {epoch}")
        if not stack.runs:
            raise stack.outcomes[0]
        _, (eval_loss,) = forward_loss(stack.params, spec, evaluation.X, evaluation.y)
        if not np.isfinite(eval_loss):
            raise TrainingDivergedError(
                f"non-finite loss at pretrain epoch {epoch} (eval)"
            )
        if plateau.stalled(eval_loss):
            break
    return stack.params.member(0)


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


@dataclasses.dataclass(frozen=True)
class FairRun:
    """One run of the fair loop, as ``train_stack`` takes it.

    ``related`` may be None only for penalty-free runs (``cfg.eta`` must
    then be 0).  ``learn_lambda=False`` keeps lambda uniform
    (``related.lambda0``) throughout.  ``reg_train``/``reg_eval`` override
    the matrices the penalty reads its regularized columns from; they
    default to the model inputs themselves.  The sensitive-aware baseline
    passes the group column here so the penalty machinery is shared, while
    the model inputs stay untouched.  ``fairness`` maps the evaluation
    predictions to the trace's ``(eval_delta_eo, eval_delta_dp)``; without
    it both are None.
    """

    related: object
    cfg: TrainConfig
    learn_lambda: bool = True
    reg_train: object = None
    reg_eval: object = None
    fairness: object = None


class _Member:
    """A run's own state in its stack: lambda, trace, history and early stop."""

    def __init__(self, run, train, evaluation):
        related, cfg = run.related, run.cfg
        if related is None and cfg.eta != 0:
            raise ValueError("a related feature set is required unless eta=0")
        # checked once here: the theta-phase gradient makes no checks of its own
        reg_train = np.asarray(train.X if run.reg_train is None else run.reg_train, dtype=float)
        reg_eval = np.asarray(evaluation.X if run.reg_eval is None else run.reg_eval, dtype=float)
        if (reg_train.ndim != 2 or reg_eval.ndim != 2
                or len(reg_train) != train.n or len(reg_eval) != evaluation.n):
            raise ValueError("regularized-column matrices must be 2-d and align with the splits")
        self.run, self.cfg, self.related = run, cfg, related
        self.regs = (reg_train, reg_eval)
        self.batch_reg = None if reg_train is train.X else reg_train  # None: a batch's Xb
        self.lam = related.lambda0 if related is not None else np.zeros(0)
        self.trace = TrainTrace()
        self.history = []  # (eval_accuracy, eval_penalty, parameter vector)
        self.plateau = _Plateau(cfg.early_stop_patience)

    def penalty(self):
        """This pass's ``_adam_pass`` penalty entry."""
        if self.related is None or self.cfg.eta == 0:
            return None
        return self.cfg.eta, self.batch_reg, self.related, self.lam

    def per_feature(self, blocks, split, yhat):
        """Each related feature's score of ``yhat`` on ``split`` (0 train, 1 eval)."""
        if self.related is None:
            return np.zeros(0)
        reg, columns = self.regs[split], self.related.columns
        key = (split, id(reg), columns.tobytes())
        if key not in blocks:  # gathered once per stack run
            blocks[key] = reg[:, columns]
        return _per_feature(blocks[key], self.related, yhat)

    def step(self, blocks, fits, y_eval, theta, epoch):
        """The epoch's (b) lambda refresh, the exact minimizer given the
        current model, (c) bookkeeping and (d) convergence, from ``fits``,
        the training and evaluation splits' ``(yhat, cls_loss)``.  True once
        the run is done."""
        (yhat_train, cls_loss), (yhat_eval, eval_cls) = fits
        scores = self.per_feature(blocks, 0, yhat_train)
        if self.related is not None and self.run.learn_lambda:  # checked before any step uses it
            self.lam = solve_lambda(self.cfg.eta * scores, self.cfg.beta).lam
            _check_lambda(self.lam, epoch)
        lam, fairness = self.lam, self.run.fairness
        eval_penalty = float(lam @ self.per_feature(blocks, 1, yhat_eval))
        eval_obj = total_objective(eval_cls, eval_penalty, lam, self.cfg)
        eval_acc = accuracy(yhat_eval, y_eval)
        eo, dp = fairness(yhat_eval) if fairness is not None else (None, None)
        self.trace.append(
            EpochRecord(
                epoch=epoch,
                cls_loss=cls_loss,
                penalty_total=float(lam @ scores),
                per_feature=tuple(float(v) for v in scores),
                lam=tuple(float(v) for v in lam),
                eval_accuracy=eval_acc,
                eval_delta_eo=eo,
                eval_delta_dp=dp,
                eval_objective=eval_obj,
            )
        )
        self.history.append((eval_acc, eval_penalty, theta.copy()))
        return self.plateau.stalled(eval_obj) or epoch + 1 >= self.cfg.max_epochs

    def chosen(self, shapes):
        """Model selection: best eval accuracy among epochs whose penalty is
        within slack of the final one (the final epoch always qualifies)."""
        allowed = self.history[-1][1] * SELECTION_PENALTY_SLACK + 1e-12
        theta = max((h for h in self.history if h[1] <= allowed), key=lambda h: h[0])[2]
        return ModelParams._over(theta, shapes), self.trace


def train_stack(spec, params, train, evaluation, runs):
    """Run the fair loop of each ``FairRun`` from ``params``, in lockstep.

    ``train`` and ``evaluation`` are ``TrainView``s: features and labels.
    The runs must share ``learning_rate`` and ``batch_size``, so each epoch
    they draw one batch order from ``[spec.seed, 2]``, and every batch is
    gathered once, forwarded and backpropagated for all of them with one
    product per layer (``models.ParamStack``), and stepped with one Adam
    step over their ``(k, P)`` block.  Each epoch then forwards each split
    once for all of them, and each run takes one ``_Member.step`` on both
    forwards; the related blocks of the splits are gathered once per call.
    Lambda, the trace, the history, early stopping and model selection stay
    each run's own.  A run leaves the stack, through ``_Stack.drop``, when
    it stops, or when it fails: a non-finite loss or parameter, or a step
    that raises; the others go on as if it had never been there.

    Returns, per run in order, ``(params, trace)`` or the exception it raised.
    """
    members = []  # per run: its _Member, or the exception that refused it
    for run in runs:
        try:
            members.append(_Member(run, train, evaluation))
        except Exception as exc:  # a failed run is an outcome; callers decide
            members.append(exc)
    live = [member for member in members if isinstance(member, _Member)]
    if not live:
        return members
    cfg = live[0].cfg  # its learning_rate and batch_size are every run's
    if any((m.cfg.learning_rate, m.cfg.batch_size) != (cfg.learning_rate, cfg.batch_size)
           for m in live):
        raise ValueError("the runs of a stack must share learning_rate and batch_size")
    stack = _Stack(params, cfg.learning_rate, len(runs))
    stack.drop({row: m for row, m in enumerate(members) if isinstance(m, Exception)})
    rng = np.random.default_rng([spec.seed, 2])
    blocks = {}  # the splits' related blocks, each gathered once

    epoch = 0
    while stack.runs:
        # (a) theta phase: one full pass per lambda refresh; a model that
        # diverges leaves the stack in it
        _adam_pass(spec, stack, train, cfg, rng, f"epoch {epoch}",
                   [members[run].penalty() for run in stack.runs])
        if not stack.runs:
            break

        # (b)-(d) on one forward of each split: each run's step
        fits = [forward_loss(stack.params, spec, view.X, view.y) for view in (train, evaluation)]
        gone = {}
        for row, run in enumerate(stack.runs):
            try:
                if members[run].step(blocks, [(yhat[row], float(cls[row])) for yhat, cls in fits],
                                     evaluation.y, stack.params.flat[row], epoch):
                    gone[row] = members[run].chosen(stack.params.shapes)
            except Exception as exc:
                gone[row] = exc
        stack.drop(gone)
        epoch += 1
    return stack.outcomes


def train_fairrf(spec, params, train, evaluation, related, cfg, *,
                 learn_lambda=True, reg_train=None, reg_eval=None, fairness=None):
    """Alternate Adam passes on the penalized loss with closed-form lambda.

    One run: ``train_stack`` of one ``FairRun`` of these arguments, whose
    fields they are.  Returns ``(params, trace)``; raises what the run raised.
    """
    run = FairRun(related, cfg, learn_lambda, reg_train, reg_eval, fairness)
    (outcome,) = train_stack(spec, params, train, evaluation, [run])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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


def _cell_runs(variant, cfg, raw_schema, encoded, spec, related_names, fairness):
    """The ``FairRun``s of one cell on its group's encoded splits: one, or
    one per related feature for ``top1``."""
    enc_train, enc_eval, _ = encoded
    if variant == "constrain_s":
        if enc_train.s is None or enc_eval.s is None:
            raise ValueError("constrain_s requires the sensitive attribute")
        related = RelatedFeatureSet(features=("__sensitive__",), column_groups=((0,),))
        # its one weight stays exactly 1.0
        return [FairRun(related, cfg, learn_lambda=False,
                        reg_train=enc_train.s.astype(float)[:, None],
                        reg_eval=enc_eval.s.astype(float)[:, None], fairness=fairness)]
    rng = np.random.default_rng([spec.seed, 3])
    names = _variant_related_names(variant, raw_schema, related_names, rng)
    if names is None:
        return [FairRun(None, dataclasses.replace(cfg, eta=0.0), fairness=fairness)]
    related = resolve_related(raw_schema, enc_train, names)
    penalties = [related]
    if variant == "top1":  # one run per related feature alone
        penalties = [
            RelatedFeatureSet(features=(name,), column_groups=(cols,))
            for name, cols in zip(related.features, related.column_groups)
        ]
    learn_lambda = variant != "fixed_lambda"
    return [FairRun(r, cfg, learn_lambda=learn_lambda, fairness=fairness) for r in penalties]


def _cell_result(variant, spec, runs, outcomes, encoded):
    """The ``TrainResult`` of a cell from its runs' outcomes; raises the first failure."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    _, enc_eval, enc_test = encoded
    trained = [(params, trace, run.related) for (params, trace), run in zip(outcomes, runs)]
    params, trace, related = trained[0]
    if variant == "top1":  # min keeps the first of equally fair runs
        params, trace, related = min(
            trained, key=lambda run: delta_dp(forward(run[0], spec, enc_eval.X), enc_eval.s)
        )
    return TrainResult(variant, spec, params, trace, related,
                       forward(params, spec, enc_test.X), enc_test.y, enc_test.s)


def _train_group(cells, indices, splits, related_names, model_kind, seed, hidden_dims,
                 allow_sensitive_in_training, outcomes):
    """Train the cells ``indices`` of one encoding group into ``outcomes``."""
    train_raw, eval_raw, _ = splits
    encoded = None
    stacks = {}  # pretrain key -> [(cell index, its runs)]
    for index in indices:
        variant, cfg = cells[index]
        try:
            _check_cell(variant, eval_raw, allow_sensitive_in_training)
            if encoded is None:
                encoded = encode_splits(variant, splits, related_names)
                fairness = _eval_fairness(encoded[1])
            spec = ModelSpec(kind=model_kind, input_dim=encoded[0].n_columns,
                             hidden_dims=hidden_dims, seed=seed)
            runs = _cell_runs(variant, cfg, train_raw.schema, encoded, spec, related_names,
                              fairness)
        except Exception as exc:  # a failed cell is an outcome; callers decide
            # the frames of a traceback would keep an encoding alive
            outcomes[index] = exc.with_traceback(None)
            continue
        key = (spec, cfg.learning_rate, cfg.pretrain_epochs, cfg.batch_size)
        stacks.setdefault(key, []).append((index, runs))
    if encoded is None:
        return
    train_view, eval_view = encoded[0].train_view(), encoded[1].train_view()
    for (spec, *_), members in stacks.items():
        cfg = cells[members[0][0]][1]  # pretrain reads only the fields of the key
        try:
            pretrained = pretrain(spec, init_params(spec), train_view, eval_view, cfg)
            results = train_stack(spec, pretrained, train_view, eval_view,
                                  [run for _, runs in members for run in runs])
        except Exception as exc:
            for index, _ in members:
                outcomes[index] = exc.with_traceback(None)
            continue
        for index, runs in members:
            mine, results = results[: len(runs)], results[len(runs):]
            try:
                outcomes[index] = _cell_result(cells[index][0], spec, runs, mine, encoded)
            except Exception as exc:
                outcomes[index] = exc.with_traceback(None)


def train_cells(cells, train_raw, eval_raw, test_raw, related_names, model_kind, *,
                seed=0, hidden_dims=None, allow_sensitive_in_training=False):
    """Train ``(variant, cfg)`` cells on one split, sharing what they share.

    ``seed`` is the run's, the one the split was drawn with, and every
    ``ModelSpec`` carries it.  A variant only chooses what the fair loop
    regularizes.  The cells are grouped by encoding (``remove_related`` drops
    the related features, every other variant encodes all inputs), and a
    group is encoded once, when its first cell has passed its checks.  Within
    a group, the cells with the same model spec (seed included),
    ``learning_rate``, ``pretrain_epochs`` and ``batch_size``, the only
    fields ``pretrain`` reads, share one ``pretrain`` and then one
    ``train_stack``: their fair loops run in lockstep, each from those
    parameters, and each ends as it would alone.  ``top1`` runs the fair loop
    once per related feature and keeps the run with the smallest evaluation
    ``delta_dp`` (the first on a tie).

    Returns each cell's ``TrainResult`` or the exception it raised, in cell
    order.  Only one group's encoding is held at a time, and none on return.
    """
    splits = (train_raw, eval_raw, test_raw)
    outcomes = [None] * len(cells)
    groups = {}
    for index, (variant, _) in enumerate(cells):
        groups.setdefault(variant == "remove_related", []).append(index)
    for indices in groups.values():
        _train_group(cells, indices, splits, related_names, model_kind, seed, hidden_dims,
                     allow_sensitive_in_training, outcomes)
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
