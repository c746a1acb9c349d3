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
``run_single`` hands it every run of a job's cells that share an encoding
group and a stack key, over every seed of the job: the same model spec but
for the seed (so the same encoded width), ``learning_rate``,
``pretrain_epochs`` and ``batch_size``.  That is the vanilla and fairrf
cells of a ``compare``, every (eta, beta) cell of a ``sweep``, each
per-feature run of ``top1``, for each seed.  ``pretrain`` is a stack too,
one row per seed, and both run their epochs in one loop, ``_run_epochs``.
A row carries its ``SeedData``, and the stack one batch order per
``SeedData`` (from ``[seed, 1]`` in ``pretrain``, ``[seed, 2]`` in the fair
loop), so the rows of a seed take the same batches.  A batch is gathered
once per seed (into a ``(k, b, d)`` block, one slice per row, when the
stack has several seeds), forwarded and backpropagated for all k rows by
one ``loss_and_grad`` call over a ``models.ParamStack``, and stepped by one
Adam step over the stack's ``(k, P)`` parameter block.  Each epoch then
forwards each split its rows read once per seed, for all of that seed's
rows (the splits of several seeds are never copied into one block), and
ends in one ``step`` per row: a ``pretrain`` row's ``_Plateau`` check, or
a run's lambda refresh and bookkeeping; each distinct related block of a
split is gathered once per stack.  Each run keeps its own lambda, eta and
beta, penalty blocks, fairness callback, trace, history, early stop
(``_Plateau``, as ``pretrain``'s) and model selection.  A row that stops or
fails (a non-finite loss or parameter, or a step that raises) leaves
through ``_Stack.drop``, the one exit: it takes the row out of the
parameter block, Adam's moments and the stack's per-row state, and records
its outcome, and the others go on.  A single fair run, ``train_fairrf``,
is a stack of one; there is no other fair loop.

A run's bits do not depend on its stack.  Its products are slices of
stacked ``np.matmul`` calls, and numpy hands each slice to the BLAS call the
two-dimensional product makes, with the same strides; the elementwise
ufuncs are the same; each sum over rows runs along a row of a ``(k, n)``
block, as the one-dimensional sum does; the penalty's einsums run one run
at a time, since their order in a stacked form is unchecked; and an Adam
step is elementwise, with the one ``t`` every run in the stack shares
(they all started together).  A row's X is the shared batch, or its own
contiguous slice of the ``(k, b, d)`` block, which BLAS reads as it reads
the batch alone.  ``tests/test_lockstep.py`` checks each run of a stack,
within a seed and across seeds, against the run alone, byte for byte.

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
``_Member`` checks the regularized matrices once per run, and lambda is
checked where it is set, by ``solve_lambda`` and by ``TrainTrace.append``
in the same epoch step, before any step uses it.  A pass maps each run's
lambda to its related columns once, and each step gathers each distinct
related block (its columns of the model inputs, or of the group column for
``constrain_s``) from the batch it has just gathered, which is still in
cache, with its column means, once for every run that reads it.  Taking a
batch's rows instead from the split's block, gathered once per run, was
slower on adult-shaped data: there the block (14 of 102 columns over 27k
rows) is 3 MB, and a batch's scattered reads of it missed cache.

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
callback that ``_train_group`` builds.

Model selection: among epochs whose evaluation-split penalty is no worse than
110% of the final epoch's penalty, the checkpoint with the best evaluation
accuracy wins; ``TrainTrace.selected`` records its epoch, and ``top1``
picks by the evaluation ``delta_dp`` recorded there.  Reported metrics
always come from the held-out test split.
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
    selected: object = None  # the epoch model selection chose, once the run is done

    def append(self, record):
        _check_lambda(record.lam, record.epoch)
        self.records.append(record)

    def to_jsonl(self):
        lines = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in self.records]
        return "\n".join(lines) + ("\n" if self.records else "")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
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


@dataclasses.dataclass(frozen=True, eq=False)
class SeedData:
    """One seed's place in a stack: its ``ModelSpec`` (the seed included), the
    parameters its rows start from, and its training and evaluation
    ``TrainView``s.  The rows of one ``SeedData`` share its batch order."""

    spec: ModelSpec
    params: ModelParams
    train: object  # TrainView
    evaluation: object  # TrainView


def _stack_spec(seeds):
    """The model spec that every ``SeedData`` of a stack has but for its seed.

    Their splits must also have the same sizes (``split``'s depend on n
    alone), so that every row of the stack takes its batches at one pace."""
    first = seeds[0]
    for data in seeds:
        if (dataclasses.replace(data.spec, seed=first.spec.seed) != first.spec
                or (data.train.n, data.evaluation.n) != (first.train.n, first.evaluation.n)):
            raise ValueError("the seeds of a stack must share the model shape and the split sizes")
    return first.spec


class _Stack:
    """A lockstep stack: its ``ParamStack`` ``params`` (row j starts from
    ``seeds[j].params``), its ``Adam`` ``opt``, ``orders``, one batch-order
    generator per ``SeedData`` from ``[seed, stream]``, and per row
    ``rows[row]``, its run's own state (``.data``, ``penalty()``, ``step``),
    and ``runs[row]``, the number (0 to k - 1, as made) of that run.
    ``outcomes`` holds each run's outcome by its number, None while it is in
    the stack; ``drop`` is the one way a run leaves, with its whole row."""

    def __init__(self, seeds, lr, rows, stream):
        self.params = ParamStack(np.stack([data.params.flat for data in seeds]),
                                 seeds[0].params.shapes)
        self.opt = Adam(self.params.flat, lr)
        self.orders = {data: np.random.default_rng([data.spec.seed, stream])
                       for data in seeds}
        self.rows = list(rows)
        self.runs = list(range(len(self.rows)))
        self.outcomes = [None] * len(self.rows)

    def drop(self, gone):
        """The rows of ``gone``, ``{row: outcome}``, leave the parameter block,
        Adam's moments and ``rows``, and their runs' outcomes are recorded.
        Returns the rows that stay, in order, as they were numbered before."""
        keep = [row for row in range(len(self.runs)) if row not in gone]
        if gone:
            for row, outcome in gone.items():
                self.outcomes[self.runs[row]] = outcome
            self.params = ParamStack(self.params.flat[keep], self.params.shapes)
            self.opt.keep(keep)
            self.rows = [self.rows[row] for row in keep]
            self.runs = [self.runs[row] for row in keep]
        return keep

    def by_seed(self):
        """Each ``SeedData`` of the rows, in row order, with its rows' numbers."""
        rows = {}
        for row, state in enumerate(self.rows):
            rows.setdefault(state.data, []).append(row)
        return rows


def _adam_pass(spec, stack, cfg, where):
    """One shuffled pass of mini-batch Adam steps, in place, for every row of
    the ``_Stack`` ``stack`` at once, each over its ``SeedData``'s training
    split.

    Each seed draws one batch order per pass from ``stack.orders``.  With
    one seed, each batch is gathered once and every model reads it;
    otherwise each row has its own slice of a ``(k, b, d)`` batch, which
    the first row of a seed (``stack.by_seed()``) gathers and the others of
    that seed copy.  A row's ``penalty()`` is None, for the classification
    loss alone, or ``(eta, reg, related, lam)``, and its
    ``extra_grad_on_yhat`` is then ``eta`` times the penalty gradient on the
    batch's rows of ``reg`` (None: of the batch's model inputs), which the
    caller has checked.  The batch, each distinct related block of it, the
    step's layers and its gradient live in buffers made once per pass and
    batch, and lambda is mapped to the related columns once.  Each row's
    loss is checked at every step and its parameters once, after the last
    step; a row that fails either leaves ``stack`` with a
    ``TrainingDivergedError`` that names ``where``.
    """
    by_seed = stack.by_seed()
    orders = {seed: stack.orders[seed].permutation(seed.train.n) for seed in by_seed}
    first, per_model = next(iter(by_seed)), len(by_seed) > 1
    n, height = first.train.n, min(cfg.batch_size, first.train.n)
    lead = (stack.params.k,) * per_model
    X_buf = np.empty((*lead, height, first.train.X.shape[1]), dtype=first.train.X.dtype)
    y_buf = np.empty((*lead, height), dtype=first.train.y.dtype)
    workspace = Workspace(stack.params, height, per_model)
    pens = []  # per row: None, or (eta, reg, columns, lambda per column, block key)
    for row in stack.rows:
        penalty = row.penalty()
        if penalty is None:
            pens.append(None)
            continue
        eta, reg, related, lam = penalty
        key = (row.data, id(reg), related.columns.tobytes())  # equal keys share a block
        pens.append((eta, reg, related.columns, lam[related.owner], key))

    for start in range(0, n, cfg.batch_size):
        idx = {seed: order[start : start + cfg.batch_size] for seed, order in orders.items()}
        Xb, yb = X_buf[..., : len(idx[first]), :], y_buf[..., : len(idx[first])]
        for seed, rows in by_seed.items():
            Xj, yj = (Xb[rows[0]], yb[rows[0]]) if per_model else (Xb, yb)
            # idx is in range, and mode="clip" lets take write straight into out
            seed.train.X.take(idx[seed], axis=0, out=Xj, mode="clip")
            seed.train.y.take(idx[seed], out=yj, mode="clip")
            for j in rows[1:] if per_model else ():  # the seed's other rows copy its first
                np.copyto(Xb[j], Xj)
                np.copyto(yb[j], yj)
        extra = None
        if any(pens):
            blocks = {}  # each distinct related block of the batch and its column means

            def extra(yhat):
                out = []
                for j, (pen, yhat_j) in enumerate(zip(pens, yhat)):
                    if pen is None:
                        out.append(None)
                        continue
                    eta, reg, columns, col_lam, key = pen
                    if key not in blocks:
                        rows_of = (Xb[j] if per_model else Xb) if reg is None else reg[idx[key[0]]]
                        blocks[key] = _related_block(rows_of, columns)
                    out.append(eta * _block_grad(*blocks[key], col_lam, yhat_j))
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
            if per_model:
                X_buf, y_buf = X_buf[keep], y_buf[keep]
            by_seed = stack.by_seed()
            workspace = Workspace(stack.params, height, per_model)
        stack.opt.step(stack.params.flat, grad)
    finite = np.isfinite(stack.params.flat).all(axis=1).tolist()
    stack.drop({j: TrainingDivergedError(f"non-finite parameters at {where}")
                for j, ok in enumerate(finite) if not ok})


def _forward_rows(stack, spec, split):
    """Each row's ``(yhat, cls_loss)`` on its ``SeedData``'s ``split`` view,
    "train" or "evaluation": one ``forward_loss`` per seed, over that seed's
    rows, so that no split is copied beside another."""
    fits = [None] * len(stack.rows)
    for seed, rows in stack.by_seed().items():
        params = ParamStack(stack.params.flat[rows], stack.params.shapes)
        view = getattr(seed, split)
        yhat, loss = forward_loss(params, spec, view.X, view.y)
        for i, row in enumerate(rows):
            fits[row] = (yhat[i], float(loss[i]))
    return fits


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


def _run_epochs(spec, stack, cfg, splits, label=""):
    """Train the rows of the ``_Stack`` ``stack`` until each has left it, and
    return its outcomes.  An epoch is one ``_adam_pass``, one
    ``_forward_rows`` of each split of ``splits``, and one ``step(fits,
    params, row, epoch)`` per row, on its ``(yhat, cls_loss)`` of each
    split: None while the row goes on, else its outcome, or the exception
    it raises; the rows that are done leave in one ``_Stack.drop``."""
    epoch = 0
    while stack.runs:
        _adam_pass(spec, stack, cfg, f"{label}epoch {epoch}")
        fits = zip(*(_forward_rows(stack, spec, split) for split in splits))
        gone = {}
        for row, (state, fit) in enumerate(zip(stack.rows, fits)):
            try:
                outcome = state.step(fit, stack.params, row, epoch)
            except Exception as exc:  # a failed run is an outcome; callers decide
                outcome = exc
            if outcome is not None:
                gone[row] = outcome
        stack.drop(gone)
        epoch += 1
    return stack.outcomes


# ---------------------------------------------------------------------------
# pretraining


class _Warmup:
    """A pretraining row: its ``SeedData``, epoch limit and early stop."""

    def __init__(self, data, epochs):
        self.data, self.epochs, self.plateau = data, epochs, _Plateau(PRETRAIN_PATIENCE)

    def penalty(self):
        return None

    def step(self, fits, params, row, epoch):
        """The parameters once the evaluation loss stalls or the last epoch ends."""
        ((_, eval_loss),) = fits
        if not math.isfinite(eval_loss):
            raise TrainingDivergedError(f"non-finite loss at pretrain epoch {epoch} (eval)")
        if self.plateau.stalled(eval_loss) or epoch + 1 >= self.epochs:
            return params.member(row)
        return None


def pretrain(seeds, cfg):
    """Mini-batch Adam on the classification loss alone, for each
    ``SeedData`` of ``seeds`` from its ``params``, in lockstep: one row per
    seed, with its batch order drawn from ``[seed, 1]``.

    A row runs for cfg.pretrain_epochs or until its evaluation loss stops
    improving for PRETRAIN_PATIENCE consecutive epochs, and then leaves the
    stack; pretrain_epochs=0 returns copies.  A row that diverges leaves
    with a ``TrainingDivergedError`` naming the epoch.  Returns, per seed in
    order, its ``ModelParams`` or that error.
    """
    spec = _stack_spec(seeds)
    if cfg.pretrain_epochs == 0:
        return [data.params.copy() for data in seeds]
    rows = [_Warmup(data, cfg.pretrain_epochs) for data in seeds]
    return _run_epochs(spec, _Stack(seeds, cfg.learning_rate, rows, 1), cfg, ("evaluation",),
                       "pretrain ")


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
    """A run's own state in its stack: its ``SeedData``, lambda, trace,
    history and early stop, beside the stack's shared related ``blocks``."""

    def __init__(self, run, data, blocks):
        related, cfg = run.related, run.cfg
        train, evaluation = data.train, data.evaluation
        if related is None and cfg.eta != 0:
            raise ValueError("a related feature set is required unless eta=0")
        # checked once here: the theta-phase gradient makes no checks of its own
        reg_train = np.asarray(train.X if run.reg_train is None else run.reg_train, dtype=float)
        reg_eval = np.asarray(evaluation.X if run.reg_eval is None else run.reg_eval, dtype=float)
        if (reg_train.ndim != 2 or reg_eval.ndim != 2
                or len(reg_train) != train.n or len(reg_eval) != evaluation.n):
            raise ValueError("regularized-column matrices must be 2-d and align with the splits")
        self.run, self.cfg, self.related, self.data, self.blocks = run, cfg, related, data, blocks
        self.regs = (reg_train, reg_eval)
        self.batch_reg = None if reg_train is train.X else reg_train  # None: a batch's Xb
        self.lam = related.lambda0 if related is not None else np.zeros(0)
        self.trace = TrainTrace()
        self.history = []  # per epoch, (eval_penalty, parameter vector)
        self.plateau = _Plateau(cfg.early_stop_patience)

    def penalty(self):
        """This pass's ``_adam_pass`` penalty entry."""
        if self.related is None or self.cfg.eta == 0:
            return None
        return self.cfg.eta, self.batch_reg, self.related, self.lam

    def per_feature(self, split, yhat):
        """Each related feature's score of ``yhat`` on ``split`` (0 train, 1 eval)."""
        if self.related is None:
            return np.zeros(0)
        reg, columns = self.regs[split], self.related.columns
        key = (split, id(reg), columns.tobytes())
        if key not in self.blocks:  # gathered once per stack run
            self.blocks[key] = reg[:, columns]
        return _per_feature(self.blocks[key], self.related, yhat)

    def step(self, fits, params, row, epoch):
        """The epoch's (b) lambda refresh, the exact minimizer given the
        current model, (c) bookkeeping and (d) convergence, from ``fits``,
        the training and evaluation splits' ``(yhat, cls_loss)`` of row
        ``row`` of ``params``.  The chosen ``(params, trace)`` once it is done."""
        (yhat_train, cls_loss), (yhat_eval, eval_cls) = fits
        scores = self.per_feature(0, yhat_train)
        if self.related is not None and self.run.learn_lambda:  # checked before any step uses it
            self.lam = solve_lambda(self.cfg.eta * scores, self.cfg.beta).lam
        lam, fairness = self.lam, self.run.fairness
        eval_penalty = float(lam @ self.per_feature(1, yhat_eval))
        eval_obj = total_objective(eval_cls, eval_penalty, lam, self.cfg)
        eo, dp = fairness(yhat_eval) if fairness is not None else (None, None)
        self.trace.append(
            EpochRecord(
                epoch=epoch,
                cls_loss=cls_loss,
                penalty_total=float(lam @ scores),
                per_feature=tuple(float(v) for v in scores),
                lam=tuple(float(v) for v in lam),
                eval_accuracy=accuracy(yhat_eval, self.data.evaluation.y),
                eval_delta_eo=eo,
                eval_delta_dp=dp,
                eval_objective=eval_obj,
            )
        )
        self.history.append((eval_penalty, params.flat[row].copy()))
        if not (self.plateau.stalled(eval_obj) or epoch + 1 >= self.cfg.max_epochs):
            return None
        # model selection: best eval accuracy among epochs whose penalty is
        # within slack of the final one (the final epoch always qualifies)
        allowed = self.history[-1][0] * SELECTION_PENALTY_SLACK + 1e-12
        self.trace.selected = max((e for e, (pen, _) in enumerate(self.history) if pen <= allowed),
                                  key=lambda e: self.trace.records[e].eval_accuracy)
        return ModelParams._over(self.history[self.trace.selected][1], params.shapes), self.trace


def train_stack(rows):
    """Run the fair loop of each ``(SeedData, FairRun)`` row, in lockstep.

    A row starts from its ``SeedData``'s parameters and trains on its views
    (``TrainView``s: features and labels).  The rows must share the model
    shape (the spec but for its seed), the split sizes, ``learning_rate``
    and ``batch_size``.  They run their epochs in ``_run_epochs`` (see the
    module docstring), the rows of a ``SeedData`` on one batch order from
    ``[seed, 2]``.  A run leaves the stack when it stops, or when it fails:
    a non-finite loss or parameter, or a step that raises; the others go on
    as if it had never been there.

    Returns, per row in order, ``(params, trace)`` or the exception it raised.
    """
    blocks = {}  # the splits' related blocks, each gathered once
    members = []  # per row: its _Member, or the exception that refused it
    for data, run in rows:
        try:
            members.append(_Member(run, data, blocks))
        except Exception as exc:  # a failed run is an outcome; callers decide
            members.append(exc)
    live = [member for member in members if isinstance(member, _Member)]
    if not live:
        return members
    seeds = [data for data, _ in rows]
    spec = _stack_spec(seeds)
    cfg = live[0].cfg  # its learning_rate and batch_size are every run's
    if any((m.cfg.learning_rate, m.cfg.batch_size) != (cfg.learning_rate, cfg.batch_size)
           for m in live):
        raise ValueError("the runs of a stack must share learning_rate and batch_size")
    stack = _Stack(seeds, cfg.learning_rate, members, 2)
    stack.drop({row: m for row, m in enumerate(members) if isinstance(m, Exception)})
    return _run_epochs(spec, stack, cfg, ("train", "evaluation"))


def train_fairrf(spec, params, train, evaluation, related, cfg, *,
                 learn_lambda=True, reg_train=None, reg_eval=None, fairness=None):
    """Alternate Adam passes on the penalized loss with closed-form lambda.

    One run: ``train_stack`` of one row, the ``SeedData`` and the
    ``FairRun`` of these arguments.  Returns ``(params, trace)``; raises
    what the run raised.
    """
    run = FairRun(related, cfg, learn_lambda, reg_train, reg_eval, fairness)
    (outcome,) = train_stack([(SeedData(spec, params, train, evaluation), run)])
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


def _cell_result(variant, spec, runs, outcomes, enc_test):
    """The ``TrainResult`` of a cell from its runs' outcomes; raises the first
    failure.  ``top1`` keeps the run with the smallest evaluation ``delta_dp``
    its trace recorded at its selected epoch, the first on a tie."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    trained = [(params, trace, run.related) for (params, trace), run in zip(outcomes, runs)]
    params, trace, related = trained[0]
    if variant == "top1":
        dps = [trace.records[trace.selected].eval_delta_dp for _, trace, _ in trained]
        if None in dps:
            raise MetricUndefinedError("top1: the eval split has fewer than two sensitive groups")
        params, trace, related = trained[dps.index(min(dps))]
    return TrainResult(variant, spec, params, trace, related,
                       forward(params, spec, enc_test.X), enc_test.y, enc_test.s)


def _train_group(cells, indices, splits, related_names, model_kind, hidden_dims,
                 allow_sensitive_in_training, outcomes):
    """Train the cells ``indices`` of one encoding group, for every seed of
    ``splits``, into ``outcomes``; see ``_train_seeds``."""
    encodings = {}  # seed position -> its encoded splits, held until the group is trained
    starts = {}  # seed position -> its SeedData, at its init
    stacks = {}  # stack key -> [(seed position, cell index, its runs)]
    for pos, (seed, seed_splits) in enumerate(splits):
        if isinstance(seed_splits, Exception):
            continue
        train_raw, eval_raw, _ = seed_splits
        for index in indices:
            variant, cfg = cells[index]
            try:
                _check_cell(variant, eval_raw, allow_sensitive_in_training)
                if pos not in starts:
                    encoded = encode_splits(variant, seed_splits, related_names)
                    spec = ModelSpec(kind=model_kind, input_dim=encoded[0].n_columns,
                                     hidden_dims=hidden_dims, seed=seed)
                    encodings[pos], fairness = encoded, _eval_fairness(encoded[1])
                    starts[pos] = SeedData(spec, init_params(spec), encoded[0].train_view(),
                                           encoded[1].train_view())
                runs = _cell_runs(variant, cfg, train_raw.schema, encodings[pos], spec,
                                  related_names, fairness)
            except Exception as exc:  # a failed cell is an outcome; callers decide
                # the frames of a traceback would keep an encoding alive
                outcomes[pos][index] = exc.with_traceback(None)
                continue
            # seeds whose encodings differ in width stack apart
            key = (dataclasses.replace(spec, seed=0), cfg.learning_rate, cfg.pretrain_epochs,
                   cfg.batch_size)
            stacks.setdefault(key, []).append((pos, index, runs))
    for members in stacks.values():
        cfg = cells[members[0][1]][1]  # pretrain reads only the fields of the key
        positions = list(dict.fromkeys(pos for pos, _, _ in members))
        try:
            pretrained = dict(zip(positions, pretrain([starts[pos] for pos in positions], cfg)))
            fair = {pos: dataclasses.replace(starts[pos], params=params)
                    for pos, params in pretrained.items() if not isinstance(params, Exception)}
            results = train_stack([(fair[pos], run) for pos, _, runs in members
                                   if pos in fair for run in runs])
        except Exception as exc:
            for pos, index, _ in members:
                outcomes[pos][index] = exc.with_traceback(None)
            continue
        for pos, index, runs in members:
            if pos not in fair:
                outcomes[pos][index] = pretrained[pos]
                continue
            mine, results = results[: len(runs)], results[len(runs):]
            try:
                outcomes[pos][index] = _cell_result(cells[index][0], starts[pos].spec, runs,
                                                    mine, encodings[pos][2])
            except Exception as exc:
                outcomes[pos][index] = exc.with_traceback(None)


def _train_seeds(cells, splits, related_names, model_kind, hidden_dims,
                 allow_sensitive_in_training):
    """Train ``(variant, cfg)`` cells on every seed's split, sharing what they share.

    ``splits`` holds ``(seed, its (train, eval, test) splits)``, or the
    exception splitting raised, which fails every cell of that seed.  The
    cells are grouped by encoding (``remove_related`` drops the related
    features), and the groups train one after the other: a seed is encoded
    for a group when its first cell there passes its checks, and every
    seed's encoding of the group, and none of an earlier group's, is held
    until the group is trained.  Within a group, the cells with the same
    spec but for the seed (so the same encoded width), ``learning_rate``,
    ``pretrain_epochs`` and ``batch_size``, the only fields ``pretrain``
    reads, form one stack over their seeds: one ``pretrain``, a row per
    seed, then one ``train_stack`` of each of their runs, from its seed's
    pretrained parameters.  ``top1`` runs the fair loop once per related
    feature and keeps the run with the smallest evaluation ``delta_dp`` at
    its selected epoch, as its trace recorded it (the first on a tie).
    Returns, per seed, each cell's ``TrainResult`` or the exception it
    raised, in cell order.
    """
    outcomes = [[s if isinstance(s, Exception) else None] * len(cells) for _, s in splits]
    groups = {}
    for index, (variant, _) in enumerate(cells):
        groups.setdefault(variant == "remove_related", []).append(index)
    for indices in groups.values():
        _train_group(cells, indices, splits, related_names, model_kind, hidden_dims,
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
    """Train one baseline/method variant on pre-split raw data, drawn with
    ``seed``, as ``run_single`` trains one cell (see ``_train_seeds``);
    raises what the cell raised."""
    ((outcome,),) = _train_seeds([(variant, cfg)], [(seed, (train_raw, eval_raw, test_raw))],
                                 related_names, model_kind, hidden_dims,
                                 allow_sensitive_in_training)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# seeded experiment runs


def run_single(raw, related_names, cells, model_kind, seeds, *, hidden_dims=None,
               allow_sensitive_in_training=False):
    """One job of several seeds: split with each seed, then train the
    ``(variant, cfg)`` cells of every seed at once, the seeds whose cells
    can share a stack in one (see ``_train_seeds``).  Returns, per seed in
    order, each cell's ``TrainResult`` or exception, in cell order; a seed
    whose split fails has that failure for every cell."""
    splits = []
    for seed in seeds:
        try:
            splits.append((seed, split(raw, seed=seed)))
        except Exception as exc:  # the seed's outcome, for each of its cells
            splits.append((seed, exc.with_traceback(None)))
    return _train_seeds(cells, splits, related_names, model_kind, hidden_dims,
                        allow_sensitive_in_training)


def run_seeds(raw, related_names, cells, model_kind, seeds, *, hidden_dims=None,
              allow_sensitive_in_training=False):
    """One ``run_single`` over all of ``seeds``; raises the first failure, seed
    by seed and in cell order within a seed.  Returns one ``(FairnessReport,
    per-seed TrainResults)`` per cell, in cell order."""
    rows = [[] for _ in cells]  # per cell, each seed's (result, metrics)
    for outcomes in run_single(raw, related_names, cells, model_kind, seeds,
                               hidden_dims=hidden_dims,
                               allow_sensitive_in_training=allow_sensitive_in_training):
        for row, outcome in zip(rows, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            row.append((outcome, outcome.test_metrics()))
    return [(aggregate([m for _, m in row]), [r for r, _ in row]) for row in rows]
