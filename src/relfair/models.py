"""Gradient-trainable base classifiers: logistic regression, linear SVM, MLP.

Backpropagation is hand-derived for these three fixed architectures (no
autodiff). Every classifier exposes a probability-like score in (0, 1): the
sigmoid of the logit for LR/MLP and the sigmoid of the raw margin for the
SVM, so the correlation regularizer and the fairness metrics share one code
path. ``loss_and_grad`` accepts an extra upstream gradient on that score,
given as a function of the score it computes, which is how the regularizer
injects its pull without the model code knowing about fairness at all.
``forward_loss`` is the same forward pass and loss without the backward pass.

Layout: a ``ModelParams`` packs its weights and biases, in ``arrays()``
order, into one C-contiguous float64 vector ``flat`` when it is built, and
keeps each array as a view into it.  Each bias follows its weights, so layer
i is also the one ``(fan_in + 1, fan_out)`` view ``stacked[i]``, the weights
with the bias as their last row.  Gradients come back in the same layout, so
the optimizer updates every parameter with one vector expression.

Stacks: a ``ParamStack`` holds k models of one layout as the rows of a
``(k, P)`` block, with each layer a ``(k, fan_in + 1, fan_out)`` view, so
that several runs train in lockstep.  The forward, the loss and the
backward are written once, over a stack: every product is one
``np.matmul`` over the k models, with X (and, where the MLP folds, X beside
its ones) broadcast to all of them, or with one X per model, ``(k, n, d)``,
where the models train on different splits, and every loss-head ufunc runs
over a ``(k, n)`` block.  An extra gradient on the predictions comes as one
block over the models that have one (the penalized runs of a stack) and is
added to their rows in one ufunc; the other rows are not touched.  A
``ModelParams`` runs as a stack of one that views it.  Each model's bits
are those it gets alone: numpy runs a stacked matmul as
one BLAS call per model, with the two-dimensional call's strides (a
model's own X is a contiguous ``(n, d)`` slice, as a split's X is), so each
slice is the same gemm or gemv call; the ufuncs are elementwise; and the
sums over rows (the losses, the bias gradients) run along each model's own
rows, in the same order as alone.  ``TestStack`` checks each model of a
stack against the model alone, and ``tests/test_lockstep.py`` whole runs.

Bias fold: where an MLP folds (``_folds``), X and each hidden layer's
output live in buffers with a trailing column of ones, so a hidden layer is
one product ``[h, 1] @ stacked[i]`` in place of a product and a broadcast
add, and a step's backward gets the weight and bias gradients from one
``[h, 1].T @ delta`` in place of a product and a column sum.  The bits stay
those of the separate add and sum only where BLAS sums each dot product in
one pass, in order, with the bias (or the ones) last.  That is a property
of the BLAS kernel, so the fold is kept to the shapes where it was checked
bit for bit: OpenBLAS 0.3.31 on an AVX-512 Xeon, at 1, 2 and 4 threads,
kept every bit when a folded layer's width was a multiple of 8 and its dot
products had at most ``FOLD_MAX_TERMS`` (256) terms.  At other widths the
kernel's edge tiles round otherwise, and it splits a dot product of more
than 384 terms into partial sums, the bias in the last.  So an MLP folds
only if each hidden layer has 2 to 255 inputs and a width that is a
multiple of 8, and ``loss_and_grad`` folds only over 2 to 256 rows, since a
bias gradient is a dot product over the rows.  A one-row input never folds,
nor does the one-wide output layer, LR or the SVM: numpy hands those
products to gemv.  The tests check folding and unfolding shapes bit for
bit (``TestInPlaceBackward``, ``TestRowBlocks``), and CI runs them at one
BLAS thread and at the runner's count; a BLAS that sums otherwise fails
them, and ``_folds`` must then shrink.  The fold took
a 128-row step of the (64, 32) MLP on 5 inputs from about 137 to 120 us,
and its 10000-row ``forward_loss`` from 2.5 to 2.0 ms (one BLAS thread,
2-core Xeon).  On 102 inputs the copy of X beside the ones costs a
whole-split forward more than the adds it saves: 5.9 to 6.5 ms.

Row blocks: ``raw_scores``, and through it ``forward`` and ``forward_loss``,
run the layers over a whole split in blocks of ``FORWARD_BLOCK_ROWS`` rows.
The hidden activations of a whole split (10000 x 64 float64 is 5 MB) fall
out of cache, and a block's stay in it.  Each call allocates the buffers of
``_layer_buffers`` once, as tall as the tallest block, and every block
computes in place in their leading rows: each layer's product (folded or
followed by the bias add) and its ReLU on the same array.  Fresh
arrays cost more than the arithmetic: three per hidden layer and block,
512 KB each when 64 wide, each mapped in and out again by the allocator, so
a 10000-row (64, 32) MLP forward took about 1,370 minor page faults, against
about 160 with one buffer set.  The buffers live in the call's frame;
nothing is kept between calls.  Rows are independent, so only the raw
scores are blocked, and the sigmoid, the clip and the summed loss still run
on the whole vector; no sum changes order.  The scores equal one unblocked
pass bit for bit for the shapes ``TestRowBlocks`` checks over several blocks:
LR and the SVM on 12 inputs, and MLPs with hidden layers up to 248 wide.  A
wider layer is checked over one block only: at 2065 rows, MLPs with a
layer of 520 to 1032 units rounded otherwise than one pass, at 2 BLAS
threads (ROADMAP item 17).

Mini-batches: ``loss_and_grad`` forwards its batch in one go, for every
model of the stack, in the same buffers, and keeps the activations for the
backward pass.  It computes in a ``Workspace``: the forward's buffers,
one per hidden layer for the backward ``delta`` and one gradient
``ParamStack``; a batch of m rows uses their leading m rows.  The loss
head (the sigmoid, the clip, the loss terms and ``d_raw``, each a (k, m)
block) is the written-out expressions on fresh arrays: it is elementwise,
and writing it in place into kept buffers showed no gain.  Each ReLU mask
(0.0 or 1.0) overwrites its activation once that is spent.  A ``delta``
buffer is as wide as the activation buffer, so the mask multiplies whole
contiguous rows; where the MLP folds, its column beside the ones stays
zero and is never read.  numpy runs an elementwise ufunc over a strided
view row by row, which took 11 us for a 128 x 64 ReLU against 3 us whole.
A call without a workspace makes its own.  A training pass makes one and
hands it to every step, so a step allocates no array as large as a layer;
the returned gradient is then the workspace's, and the next call
overwrites it.  The one-wide output layer's ``delta @ W.T`` is an
``np.multiply``: the same products, without a gemm call.
"""

from __future__ import annotations

import io
import json
import numbers
import zipfile
from dataclasses import dataclass, field

import numpy as np

PROB_EPS = 1e-7  # clamp for probabilities before logs
FORWARD_BLOCK_ROWS = 1024  # rows per block of a whole-split forward

MODEL_KINDS = ("lr", "svm", "mlp")
_CHECKPOINT_VERSION = 1


def _check_int(value, name, low):
    """``value`` as an int if it is an integer >= ``low``; a numpy integer counts, a bool not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def check_hidden_dims(kind, hidden_dims):
    """The hidden widths of a ``kind`` model as ints; None gives an mlp (64, 32)."""
    if hidden_dims is None:
        return (64, 32) if kind == "mlp" else ()
    try:
        hidden_dims = tuple(hidden_dims)
    except TypeError:
        raise ValueError(f"hidden_dims must be a list of widths, got {hidden_dims!r}") from None
    if kind != "mlp" and hidden_dims:
        raise ValueError(f"hidden_dims only apply to mlp, got {hidden_dims}")
    if kind == "mlp" and not hidden_dims:
        raise ValueError("hidden_dims of an mlp must be one or more widths >= 1, got ()")
    return tuple(_check_int(width, "hidden_dims entry", 1) for width in hidden_dims)


def check_seed(seed):
    """``seed`` as an int if it is an integer >= 0; a numpy integer counts, a bool not."""
    return _check_int(seed, "seed", 0)


@dataclass(frozen=True)
class ModelSpec:
    """A model's shape and its run's one seed (split, init, batch order and
    variant sampling), which the checkpoint stores."""

    kind: str
    input_dim: int
    hidden_dims: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "input_dim", _check_int(self.input_dim, "input_dim", 1))
        object.__setattr__(self, "hidden_dims", check_hidden_dims(self.kind, self.hidden_dims))
        object.__setattr__(self, "seed", check_seed(self.seed))

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, 1]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


@dataclass
class ModelParams:
    """Per-layer weights and biases; the last layer maps to a single output.

    Construction copies the given arrays into one new vector ``flat`` and
    replaces them with views into it, in ``arrays()`` order.  ``stacked[i]``
    is layer i's ``(fan_in + 1, fan_out)`` view ``[weights[i]; biases[i]]``.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    stacked: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for w, b in zip(self.weights, self.biases):
            if np.ndim(w) != 2 or np.shape(b) != np.shape(w)[1:]:
                raise ValueError(f"a layer needs weights (fan_in, fan_out) and biases "
                                 f"(fan_out,), got {np.shape(w)} and {np.shape(b)}")
        self.flat = np.concatenate([np.ravel(a) for a in self.arrays()], dtype=float)
        self._view_layers([np.shape(w) for w in self.weights])

    @classmethod
    def _over(cls, flat, shapes) -> "ModelParams":
        """Parameters of layers ``shapes`` that view the vector ``flat``; no copy."""
        out = object.__new__(cls)
        out.flat = flat
        out._view_layers(shapes)
        return out

    def _view_layers(self, shapes):
        """Point ``stacked``, ``weights`` and ``biases`` at consecutive pieces of ``flat``."""
        self.stacked = _layer_views(self.flat, shapes)
        self.weights = [wb[:-1] for wb in self.stacked]
        self.biases = [wb[-1] for wb in self.stacked]

    def __reduce__(self):  # pickle and deepcopy rebuild the layout too
        return ModelParams, (self.weights, self.biases)

    @property
    def shapes(self) -> list[tuple[int, int]]:
        """Each layer's ``(fan_in, fan_out)``."""
        return [w.shape for w in self.weights]

    def copy(self) -> "ModelParams":
        return ModelParams(weights=self.weights, biases=self.biases)

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def _layer_views(flat, shapes):
    """Each layer's ``(..., fan_in + 1, fan_out)`` view of the last axis of ``flat``."""
    views, start = [], 0
    for fan_in, fan_out in shapes:
        size = (fan_in + 1) * fan_out
        views.append(flat[..., start : start + size].reshape(
            *flat.shape[:-1], fan_in + 1, fan_out))
        start += size
    return views


class ParamStack:
    """The parameters of k models of one layout, trained in lockstep.

    Row j of the C-contiguous ``(k, P)`` block ``flat`` is model j's
    ``ModelParams.flat``, and ``stacked[i]``, ``weights[i]`` and
    ``biases[i]`` are the ``(k, fan_in + 1, fan_out)``, ``(k, fan_in,
    fan_out)`` and ``(k, 1, fan_out)`` views of layer i into it.  Every
    function here that takes a ``ModelParams`` takes a ``ParamStack`` too
    and then gives each model's result along a leading axis.
    """

    def __init__(self, flat, shapes):
        self.flat, self.k = flat, len(flat)
        self.shapes = list(shapes)
        self.stacked = _layer_views(flat, self.shapes)
        self.weights = [wb[:, :-1] for wb in self.stacked]
        self.biases = [wb[:, -1:] for wb in self.stacked]

    def member(self, j) -> ModelParams:
        """A copy of model j's parameters."""
        return ModelParams._over(self.flat[j].copy(), self.shapes)


def _as_stack(params):
    """``params`` if it is a ``ParamStack``, else a one-model stack that views it."""
    if isinstance(params, ParamStack):
        return params
    return ParamStack(params.flat[None], params.shapes)


def init_params(spec: ModelSpec) -> ModelParams:
    """Deterministic init: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights=weights, biases=biases)


def sigmoid(x) -> np.ndarray:
    """The logistic function ``1 / (1 + exp(-x))``, elementwise.

    Below x = -709.78 ``exp(-x)`` overflows to inf and the result is exactly
    0.0; that overflow is the intended saturation, so it is not warned about.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_input(spec: ModelSpec, X: np.ndarray, params=None) -> np.ndarray:
    """X as floats: (n, d), which every model reads, or, for a ``ParamStack``
    of k models, (k, n, d), one X per model."""
    X = np.asarray(X, dtype=float)
    k = params.k if isinstance(params, ParamStack) else None
    per_model = X.ndim == 3 and len(X) == k
    if X.shape[-1:] != (spec.input_dim,) or X.ndim != (3 if per_model else 2):
        shapes = f"(n, {spec.input_dim})" + (f" or ({k}, n, {spec.input_dim})" if k else "")
        raise ValueError(f"X must be {shapes}, got {X.shape}")
    return X


FOLD_MAX_TERMS = 256  # the longest dot product a bias fold may make


def _folds(params) -> bool:
    """Whether an MLP's hidden layers fold their biases into their products.

    Only where the fold keeps every bit (see the module docstring): each
    hidden layer has 2 to ``FOLD_MAX_TERMS - 1`` inputs and a width that is
    a multiple of 8.
    """
    hidden = params.shapes[:-1]
    return bool(hidden) and all(
        1 < fan_in < FOLD_MAX_TERMS and fan_out % 8 == 0 for fan_in, fan_out in hidden
    )


def _layer_buffers(params: ParamStack, rows: int, fold: bool, per_model: bool):
    """``(x, hidden, out)``, the arrays a forward over up to ``rows`` rows computes in.

    ``hidden`` has one ``(k, rows, width)`` array per hidden layer for its
    output, and ``out`` is (k, rows, 1) for the raw scores.  With ``fold``,
    ``x`` is one (rows, inputs + 1) array for X, which every model reads,
    or with ``per_model`` one such array per model, (k, rows, inputs + 1),
    and X and each hidden layer's output sit beside a column of ones;
    without, ``x`` is None.
    """
    ones = 1 if fold else 0
    k, shapes = params.k, params.shapes
    hidden = [np.empty((k, rows, fan_out + ones)) for _, fan_out in shapes[:-1]]
    x = None
    if fold:
        x = np.empty((*(k,) * per_model, rows, shapes[0][0] + 1))
        for buf in [x, *hidden]:
            buf[..., -1] = 1.0
    return x, hidden, np.empty((k, rows, 1))


class _RowViews:
    """The views of ``_layer_buffers`` that a forward over their leading n
    rows writes.

    ``x`` is X beside its ones (None where the MLP does not fold) and
    ``x_in`` its columns for X; ``hidden`` is each hidden layer's n rows,
    beside its ones where the MLP folds, and ``z`` the columns its product
    writes; ``raw`` is the (k, n) raw scores in ``out``.
    """

    def __init__(self, bufs, shapes, n):
        x, hidden, out = bufs
        self.x = None if x is None else x[..., :n, :]
        self.x_in = None if x is None else self.x[..., :-1]
        self.hidden = [h[:, :n] for h in hidden]
        self.z = [h[:, :, :fan_out] for h, (_, fan_out) in zip(self.hidden, shapes)]
        self.out = out[:, :n]
        self.raw = self.out[:, :, 0]


def _forward_cache(params: ParamStack, X: np.ndarray, rows: _RowViews, fold: bool):
    """Returns ((k, n) raw output scores, list of post-activation layer inputs).

    The forward runs in ``rows``, the views of the ``_layer_buffers`` for
    X's n rows.  X is every model's input, (n, d), or each model's own,
    (k, n, d), and each layer of all k models is one ``np.matmul`` over the
    stack.  With ``fold`` each hidden layer folds
    its bias (see the module docstring), and its ReLU runs over its ones
    too, which stay ones.
    """
    acts = [X]
    if fold:
        np.copyto(rows.x_in, X)
    a = rows.x  # the layer's input beside its ones
    for i, (h, z) in enumerate(zip(rows.hidden, rows.z)):
        if fold:
            np.matmul(a, params.stacked[i], out=z)
        else:
            np.matmul(acts[-1], params.weights[i], out=z)
            np.add(z, params.biases[i], out=z)
        np.maximum(h, 0.0, out=h)
        acts.append(z)
        a = h
    np.matmul(acts[-1], params.weights[-1], out=rows.out)
    np.add(rows.out, params.biases[-1], out=rows.out)
    return rows.raw, acts


def _blocked_raw(params: ParamStack, X: np.ndarray) -> np.ndarray:
    """``_forward_cache(...)[0]`` of a whole split, in row blocks: (k, n).

    No block has one row unless X does: numpy hands a one-row product to
    gemv or dot, which round unlike the gemm or gemv of a taller block.  So
    a block has at most FORWARD_BLOCK_ROWS + 1 rows, and every block runs in
    leading rows of the same per-layer buffers of that height.
    """
    n = X.shape[-2]
    raw = np.empty((params.k, n))
    fold = _folds(params) and n > 1
    bufs = _layer_buffers(params, min(n, FORWARD_BLOCK_ROWS + 1), fold, X.ndim == 3)
    edges = [0, *range(FORWARD_BLOCK_ROWS, n - 1, FORWARD_BLOCK_ROWS), n]
    for start, stop in zip(edges, edges[1:]):
        rows = _RowViews(bufs, params.shapes, stop - start)
        raw[:, start:stop], _ = _forward_cache(params, X[..., start:stop, :], rows, fold)
    return raw


def raw_scores(params, spec: ModelSpec, X) -> np.ndarray:
    """Pre-sigmoid output: the logit for LR/MLP, the margin for the SVM."""
    raw = _blocked_raw(_as_stack(params), _check_input(spec, X, params))
    return raw if isinstance(params, ParamStack) else raw[0]


def forward(params, spec: ModelSpec, X) -> np.ndarray:
    """Probability-like score in (0, 1) for every row of X."""
    return sigmoid(raw_scores(params, spec, X))


def _check_labels(X, y) -> np.ndarray:
    """y as floats, one row per X: (1, n) for an (n, d) X, which every model
    reads, or (k, n) for a (k, n, d) X."""
    y = np.asarray(y, dtype=float)
    if y.shape != X.shape[:-1]:
        raise ValueError(f"y must be {X.shape[:-1]}, got {y.shape}")
    return y[None] if y.ndim == 1 else y


def _cls_loss(spec: ModelSpec, raw, yhat, y):
    """Each model's summed classification loss plus the per-row terms its
    gradient reuses.

    ``raw`` and ``yhat`` are (k, n), one row per model, ``y`` is (1, n) or
    (k, n), and the k losses are sums along the rows.  Binary cross entropy
    on the clipped probability for LR/MLP (the terms are the clipped
    probabilities), hinge on the margins for the SVM (the terms are the
    signed labels and the per-row hinge losses).
    """
    if spec.kind == "svm":
        t = 2.0 * y - 1.0
        margin_loss = np.maximum(0.0, 1.0 - t * raw)
        return margin_loss.sum(axis=-1), (t, margin_loss)
    yc = np.minimum(np.maximum(yhat, PROB_EPS), 1.0 - PROB_EPS)
    loss = -(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc))
    return loss.sum(axis=-1), yc


def forward_loss(params, spec: ModelSpec, X, y):
    """``(forward(...), loss_and_grad(...)[0])`` from one forward pass, no backward.

    For a ``ParamStack``: the (k, n) predictions and the k losses.
    """
    X = _check_input(spec, X, params)
    y = _check_labels(X, y)
    raw = _blocked_raw(_as_stack(params), X)
    yhat = sigmoid(raw)
    loss, _ = _cls_loss(spec, raw, yhat, y)
    if isinstance(params, ParamStack):
        return yhat, loss
    return yhat[0], float(loss[0])


class Workspace:
    """The buffers of ``loss_and_grad`` for batches of up to ``rows`` rows.

    The forward's ``_layer_buffers``, one per hidden layer for the backward
    ``delta`` (as wide as that layer's buffer) and one gradient block of
    the layout of ``params``.  ``params`` is a ``ModelParams`` (k is 1) or a
    ``ParamStack`` of k models, and ``per_model`` says whether its batches
    give each model its own X.  A batch of m rows uses the leading m rows
    of each, through views made the first time a batch has m rows
    (``at``): a pass has at most two batch heights, and making a step's
    twenty-odd views afresh took about 4 us of the 118 us step of the
    (64, 32) MLP on 128 rows (one BLAS thread, 2-core Xeon).
    """

    def __init__(self, params, rows: int, per_model: bool = False):
        stack = _as_stack(params)
        self.rows, self.k, self.shapes = rows, stack.k, stack.shapes
        self.folds, self.per_model = _folds(stack), per_model
        self.layers = _layer_buffers(stack, rows, self.folds, per_model)
        self.deltas = [np.zeros(h.shape) for h in self.layers[1]]
        self.grads = ParamStack(np.empty_like(stack.flat), stack.shapes)
        self._at = {}

    def at(self, n):
        """The views of the leading n rows: the forward's ``_RowViews``, then the
        backward's, each layer's input buffer transposed (the ones too where
        the MLP folds) and its ``delta`` with the columns its product
        writes."""
        if n not in self._at:
            rows = _RowViews(self.layers, self.shapes, n)
            ins = [rows.x, *rows.hidden]
            backs = [d[:, :n] for d in self.deltas]
            fan_ins = [fan_in for fan_in, _ in self.shapes[1:]]
            self._at[n] = (
                rows, [None if a is None else a.mT for a in ins],
                [z.mT for z in rows.z], backs,
                [b[:, :, :fan_in] for b, fan_in in zip(backs, fan_ins)],
            )
        return self._at[n]


def loss_and_grad(
    params,
    spec: ModelSpec,
    X,
    y,
    extra_grad_on_yhat=None,
    *,
    workspace: Workspace | None = None,
):
    """Classification loss and its parameter gradient.

    ``extra_grad_on_yhat`` is None or a function that maps the probability
    output ``yhat`` of this call's forward pass to one extra gradient entry
    per row.  The upstream gradient at the probability output is then
    d(loss)/d(yhat) + extra_grad_on_yhat(yhat), so a caller can fold any
    differentiable function of yhat into the backward pass without a forward
    pass of its own.  The returned loss is the classification term only (sum
    over rows): binary cross entropy for LR/MLP, hinge on the margins for the
    SVM.

    ``params`` is a ``ModelParams`` or a ``ParamStack`` of k models, which
    all read X (n, d) and y (n,), or each its own row of X (k, n, d) and y
    (k, n).  A stack returns its k losses and a ``ParamStack`` gradient,
    and its ``extra_grad_on_yhat`` maps the (k, n) block of predictions to
    ``(models, block)``: the indices of the models that get an extra
    gradient, each once, and their (len(models), n) block of it, row i for
    model ``models[i]``.  The block is added to those models' rows in one
    ufunc; every other model's upstream gradient is left as it is, bit for
    bit (the SVM's can be -0.0, which adding 0.0 would turn into 0.0).

    ``workspace`` is None, and the call computes in a ``Workspace`` of its
    own, or a ``Workspace`` of this layout and k with at least as many rows
    as X.  Then the returned gradient is a view of that workspace, and the
    next call with it overwrites it.  The ``yhat`` that
    ``extra_grad_on_yhat`` receives is a fresh array of this call's.
    """
    X = _check_input(spec, X, params)
    # one row per X: at k = 1 the ufuncs of the loss head then see equal
    # shapes and take numpy's fast path, not a broadcast
    y = _check_labels(X, y)
    stack = _as_stack(params)
    single = stack is not params
    n, per_model = X.shape[-2], X.ndim == 3
    if workspace is None:
        workspace = Workspace(stack, n, per_model)
    elif n > workspace.rows:
        raise ValueError(f"a workspace of {workspace.rows} rows cannot hold {n} rows")
    elif stack.k != workspace.k:
        raise ValueError(f"a workspace of {workspace.k} models cannot hold {stack.k} models")
    elif per_model != workspace.per_model:
        raise ValueError("a workspace for one X per model takes only that, and vice versa")

    # the bias row of a folded gradient is a dot product over the n rows
    fold = workspace.folds and 1 < n <= FOLD_MAX_TERMS
    rows, ins_T, z_T, backs, ds = workspace.at(n)
    raw, _ = _forward_cache(stack, X, rows, fold)
    yhat = sigmoid(raw)
    models = None  # the models with an extra gradient, and its block
    if extra_grad_on_yhat is not None:
        if single:
            models, block = [0], np.asarray(extra_grad_on_yhat(yhat[0]), dtype=float)
            if block.shape != (n,):
                raise ValueError("extra_grad_on_yhat must give one entry per row")
            block = block[None]
        else:
            models, block = extra_grad_on_yhat(yhat)
            block = np.asarray(block, dtype=float)
            if block.shape != (len(models), n):
                raise ValueError(f"extra_grad_on_yhat must give a ({len(models)}, {n}) block, "
                                 f"one row per model it names, got {block.shape}")

    loss, terms = _cls_loss(spec, raw, yhat, y)
    if spec.kind == "svm":
        t, margin_loss = terms
        d_raw = -t * (margin_loss > 0.0)
        if models is not None:
            d_raw[models] += block * yhat[models] * (1.0 - yhat[models])
    else:
        yc = terms
        d_raw = (yc - y) / (yc * (1.0 - yc))  # d(loss)/d(yhat), then the extra
        if models is not None:
            d_raw[models] += block
        d_raw = d_raw * yhat * (1.0 - yhat)

    grads = workspace.grads  # each layer's gradient goes straight into its view
    delta = d_raw[..., None]
    last = len(stack.shapes) - 1
    for i in range(last, -1, -1):
        if fold and i < last:  # [acts, 1].T @ delta: the weight and bias rows at once
            np.matmul(ins_T[i], delta, out=grads.stacked[i])
        else:
            np.matmul(X.mT if i == 0 else z_T[i - 1], delta, out=grads.weights[i])
            delta.sum(axis=-2, keepdims=True, out=grads.biases[i])
        if i > 0:
            w, h, back, d = stack.weights[i], rows.hidden[i - 1], backs[i - 1], ds[i - 1]
            # d is back but for its column beside the ones, which stays zero
            if w.shape[-1] == 1:  # delta @ w.T over one column: one product each
                np.multiply(delta, w.mT, out=d)
            else:
                np.matmul(delta, w.mT, out=d)
            # the ReLU mask, written over its activation, which is spent now
            mask = np.greater(h, 0.0, out=h, casting="unsafe")
            np.multiply(back, mask, out=back)
            delta = d
    if single:
        return float(loss[0]), ModelParams._over(grads.flat[0], stack.shapes)
    return loss, grads


def save_checkpoint(path, params: ModelParams, spec: ModelSpec) -> None:
    """Write spec + parameters as a versioned .npz (layout documented in README)."""
    meta = {
        "format_version": _CHECKPOINT_VERSION,
        "kind": spec.kind,
        "input_dim": spec.input_dim,
        "hidden_dims": list(spec.hidden_dims),
        "seed": spec.seed,
        "n_layers": len(params.weights),
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, ModelSpec]:
    """The parameters and spec that ``save_checkpoint`` wrote to ``path``.

    A malformed file raises ``ValueError`` naming ``path`` and the fault: a
    file that is not an .npz archive, a missing or damaged array or meta
    entry, or a layer whose shape is not the spec's.  Pickled data is never
    loaded.
    """
    def fault(message):
        return ValueError(f"checkpoint {path}: {message}")

    # read whole: np.load leaves a file it opened itself open on a cut zip
    with open(path, "rb") as fh:
        blob = io.BytesIO(fh.read())
    try:  # an empty file is an EOF, a cut zip a BadZipFile
        data = np.load(blob)
    except (ValueError, EOFError, zipfile.BadZipFile):  # neither .npy nor .npz
        raise fault("not an .npz archive") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise fault("not an .npz archive")
    with data:
        def array(name):
            if name not in data.files:
                raise fault(f"no array {name!r} in the archive")
            try:
                return data[name]
            except (ValueError, zipfile.BadZipFile) as exc:  # a bad header or CRC
                raise fault(f"array {name!r} is unreadable: {exc}") from None

        meta_bytes = bytes(array("meta"))
        try:
            meta = json.loads(meta_bytes.decode())
            version = meta.get("format_version")
        except (ValueError, AttributeError):  # not UTF-8, not JSON, or not an object
            raise fault("meta is not a JSON object") from None
        if version != _CHECKPOINT_VERSION:
            raise fault(f"unsupported checkpoint version {version}")
        try:
            spec = ModelSpec(
                kind=meta["kind"],
                input_dim=meta["input_dim"],
                hidden_dims=meta["hidden_dims"],
                seed=meta["seed"],
            )
            n = _check_int(meta["n_layers"], "n_layers", 1)
        except KeyError as exc:
            raise fault(f"meta has no {exc}") from None
        except ValueError as exc:
            raise fault(exc) from None
        arrays = {name: array(name) for i in range(n) for name in (f"w{i}", f"b{i}")}
    if n != len(spec.layer_dims):
        raise fault(f"{n} layers stored, but the spec has {len(spec.layer_dims)}")
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        for name, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            if arrays[name].shape != shape:
                raise fault(f"{name} has shape {arrays[name].shape}, the spec gives {shape}")
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise fault(f"{name} holds a NaN or inf parameter")
    weights = [arrays[f"w{i}"] for i in range(n)]
    biases = [arrays[f"b{i}"] for i in range(n)]
    return ModelParams(weights=weights, biases=biases), spec
