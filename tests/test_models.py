import copy
import gc
import io
import json
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from _fresh_python import run_python

from relfair.models import (
    FORWARD_BLOCK_ROWS,
    PROB_EPS,
    ModelParams,
    ModelSpec,
    ParamStack,
    Workspace,
    _folds,
    forward,
    forward_loss,
    init_params,
    load_checkpoint,
    loss_and_grad,
    raw_scores,
    save_checkpoint,
    sigmoid,
)

ALL_SPECS = [
    ModelSpec(kind="lr", input_dim=5, seed=3),
    ModelSpec(kind="svm", input_dim=5, seed=3),
    ModelSpec(kind="mlp", input_dim=5, hidden_dims=(8, 4), seed=3),
]


def numeric_grad(params, spec, X, y, extra, h=1e-5):
    """Central finite differences on every parameter coordinate."""
    grads = ModelParams(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )

    def total_loss(p):
        loss, _ = loss_and_grad(p, spec, X, y, extra_grad_on_yhat=None)
        if extra is not None:
            # the hook folds extra into the backward pass; its primal is extra . yhat
            loss += float(extra @ forward(p, spec, X))
        return loss

    for kind in ("weights", "biases"):
        for arr, out in zip(getattr(params, kind), getattr(grads, kind)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = total_loss(params)
                arr[idx] = orig - h
                down = total_loss(params)
                arr[idx] = orig
                out[idx] = (up - down) / (2 * h)
    return grads


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestInit:
    def test_deterministic_under_seed(self):
        for spec in ALL_SPECS:
            a, b = init_params(spec), init_params(spec)
            for x, y in zip(a.arrays(), b.arrays()):
                assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        spec = ModelSpec(kind="lr", input_dim=6, seed=0)
        other = ModelSpec(kind="lr", input_dim=6, seed=1)
        assert not np.array_equal(init_params(spec).weights[0], init_params(other).weights[0])

    def test_mlp_param_count(self):
        spec = ModelSpec(kind="mlp", input_dim=10, hidden_dims=(64, 32), seed=0)
        expected = 10 * 64 + 64 + 64 * 32 + 32 + 32 * 1 + 1
        assert sum(a.size for a in init_params(spec).arrays()) == expected

    def test_biases_zero(self):
        for spec in ALL_SPECS:
            for b in init_params(spec).biases:
                assert np.all(b == 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="tree", input_dim=3)
        with pytest.raises(ValueError):
            ModelSpec(kind="lr", input_dim=0)
        with pytest.raises(ValueError):
            ModelSpec(kind="lr", input_dim=3, hidden_dims=(8,))
        assert ModelSpec(kind="mlp", input_dim=3).hidden_dims == (64, 32)
        assert ModelSpec(kind="lr", input_dim=3).hidden_dims == ()

    @pytest.mark.parametrize("hidden_dims", [(), (0,), (-3,), (8, 0), (8, True), (8, 2.5)])
    def test_mlp_widths_are_taken_as_given_or_rejected(self, hidden_dims):
        with pytest.raises(ValueError, match="hidden_dims"):
            ModelSpec(kind="mlp", input_dim=3, hidden_dims=hidden_dims)

    @pytest.mark.parametrize("input_dim", [True, 3.0, "3"], ids=["bool", "float", "str"])
    def test_input_dim_is_an_integer(self, input_dim):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"input_dim must be an integer, got {input_dim!r}") + "$"):
            ModelSpec(kind="lr", input_dim=input_dim)

    def test_numpy_integer_widths_are_stored_as_ints(self, tmp_path):
        spec = ModelSpec(kind="mlp", input_dim=np.int64(5),
                         hidden_dims=(np.int64(8), np.int64(4)), seed=3)
        assert [type(d) for d in (spec.input_dim, *spec.hidden_dims)] == [int, int, int]
        save_checkpoint(tmp_path / "m.npz", init_params(spec), spec)  # JSON takes them
        assert load_checkpoint(tmp_path / "m.npz")[1] == ALL_SPECS[2]

    @pytest.mark.parametrize("seed", [True, -1, 1.5], ids=["bool", "negative", "float"])
    def test_seed_is_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            ModelSpec(kind="lr", input_dim=3, seed=seed)

    def test_numpy_integer_seed_accepted(self, tmp_path):
        spec = ModelSpec(kind="lr", input_dim=3, seed=np.uint8(3))
        assert spec.seed == 3 and type(spec.seed) is int
        save_checkpoint(tmp_path / "m.npz", init_params(spec), spec)  # JSON takes it
        assert load_checkpoint(tmp_path / "m.npz")[1] == spec


class TestSigmoid:
    def test_saturates_exactly_without_warnings(self):
        x = np.array([800.0, -800.0, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = sigmoid(x)
        assert y.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_matches_scipy_expit_within_4_ulp(self):
        from scipy.special import expit

        x = np.linspace(-40.0, 40.0, 160_001)
        ours, ref = sigmoid(x), expit(x)
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_every_forward_pass_applies_it(self, spec):
        rng = np.random.default_rng(4)
        params = init_params(spec)
        X = rng.normal(scale=3.0, size=(13, spec.input_dim))
        y = (rng.uniform(size=13) > 0.5).astype(float)
        want = sigmoid(raw_scores(params, spec, X)).tobytes()
        seen = []

        def extra(yhat):
            seen.append(yhat.tobytes())
            return np.zeros(13)

        loss_and_grad(params, spec, X, y, extra_grad_on_yhat=extra)
        assert forward(params, spec, X).tobytes() == want
        assert forward_loss(params, spec, X, y)[0].tobytes() == want
        assert seen == [want]

    def test_library_runs_without_scipy(self):
        code = (
            "import sys\n"
            "import relfair, relfair.cli\n"
            "from relfair.synthetic import SyntheticSpec\n"
            "relfair.synthetic.generate(SyntheticSpec(n=50))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert run_python(["-c", code]) == "[]\n"


def _params_by(source, tmp_path):
    """A ModelParams of the (64, 32) MLP as ``source`` builds it."""
    spec = ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=1)
    params = init_params(spec)
    if source == "copy":
        return params.copy()
    if source == "load_checkpoint":
        save_checkpoint(tmp_path / "m.npz", params, spec)
        return load_checkpoint(tmp_path / "m.npz")[0]
    if source == "loss_and_grad":
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(9, 5)), (rng.uniform(size=9) > 0.5).astype(float)
        return loss_and_grad(params, spec, X, y)[1]
    if source == "pickle":
        return pickle.loads(pickle.dumps(params))
    if source == "deepcopy":
        return copy.deepcopy(params)
    if source == "_over":  # a layout over a fresh vector, as ParamStack.member makes
        return ModelParams._over(np.empty_like(params.flat), params.shapes)
    return params


class TestLayout:
    """Every ModelParams holds its arrays as views into one flat vector."""

    @pytest.mark.parametrize(
        "source", ["init_params", "copy", "load_checkpoint", "loss_and_grad", "pickle"]
    )
    def test_arrays_are_views_into_one_vector(self, source, tmp_path):
        params = _params_by(source, tmp_path)
        flat = params.flat
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.shape == (sum(a.size for a in params.arrays()),)
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in params.arrays()]))
        for a in params.arrays():
            assert np.shares_memory(a, flat)

    @pytest.mark.parametrize("source", [
        "init_params", "copy", "_over", "pickle", "deepcopy", "load_checkpoint",
        "loss_and_grad",
    ])
    def test_stacked_layers_are_views_into_the_vector(self, source, tmp_path):
        params = _params_by(source, tmp_path)
        start = 0
        for w, b, wb in zip(params.weights, params.biases, params.stacked):
            assert wb.shape == (w.shape[0] + 1, w.shape[1])
            assert np.shares_memory(wb, params.flat)
            values = np.arange(wb.size, dtype=float).reshape(wb.shape) + start
            wb[...] = values  # writes through to the weights, the biases and flat
            assert np.array_equal(w, values[:-1]) and np.array_equal(b, values[-1])
            assert np.array_equal(params.flat[start : start + wb.size], values.ravel())
            start += wb.size
        assert start == params.flat.size

    @pytest.mark.parametrize("w, b", [((2, 3), (2,)), ((6,), (1,)), ((2, 3), (1, 3))])
    def test_a_layer_whose_bias_does_not_fit_is_named(self, w, b):
        with pytest.raises(ValueError, match=re.escape(
                f"biases (fan_out,), got {w} and {b}")):
            ModelParams(weights=[np.zeros(w)], biases=[np.zeros(b)])

    def test_copy_owns_its_vector(self):
        params = init_params(ALL_SPECS[2])
        copy = params.copy()
        assert not np.shares_memory(copy.flat, params.flat)
        copy.flat[:] = 0.0
        assert np.all(params.weights[0] != 0.0)


# MLPs of more shapes than (5 -> 64, 32) for the tests of the bias fold:
# (inputs, hidden widths) -> whether ``_folds`` folds them
OTHER_MLPS = {
    (5, (8,)): True, (5, (16, 8, 4)): False, (1, (64, 32)): False,
    (102, (64, 32)): True, (5, (16, 1)): False, (255, (248, 8)): True,
}
# a hidden layer wider than 512, and more inputs than a fold may have
WIDE_MLPS = {(5, (64, 600)): True, (600, (64, 32)): False}


def _mlps(shapes, seed):
    return [
        pytest.param(ModelSpec(kind="mlp", input_dim=d, hidden_dims=h, seed=seed),
                     id=f"mlp{d}-" + "x".join(map(str, h)))
        for d, h in shapes
    ]


def _other_mlps(seed):
    return _mlps(OTHER_MLPS, seed)


@pytest.mark.parametrize("shape", [*OTHER_MLPS, *WIDE_MLPS])
def test_the_bit_tests_cover_folding_and_unfolding_shapes(shape):
    d, h = shape
    params = init_params(ModelSpec(kind="mlp", input_dim=d, hidden_dims=h))
    assert _folds(params) == {**OTHER_MLPS, **WIDE_MLPS}[shape]


def _unblocked(params, spec, X, y):
    """``(raw, yhat, loss)`` of one pass over all of X, written out in full."""
    h = X
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        h = np.maximum(z, 0.0) if i < len(params.weights) - 1 else z[:, 0]
    yhat = 1.0 / (1.0 + np.exp(-h))
    if spec.kind == "svm":
        loss = float(np.maximum(0.0, 1.0 - (2.0 * y - 1.0) * h).sum())
    else:
        yc = np.clip(yhat, PROB_EPS, 1.0 - PROB_EPS)
        loss = float(-(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc)).sum())
    return h, yhat, loss


class TestRowBlocks:
    """Whole-split forwards run in row blocks and equal one pass bit for bit."""

    B = FORWARD_BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 17])
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="lr", input_dim=12, seed=4),
        ModelSpec(kind="svm", input_dim=12, seed=4),
        ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=4),
        *_other_mlps(4),
    ], ids=lambda spec: spec.kind)
    def test_equal_to_one_unblocked_pass(self, spec, n):
        self._check_one_unblocked_pass(spec, n)

    # one block at most: over more, a wide layer's products round otherwise
    # at two BLAS threads, folded or not
    @pytest.mark.parametrize("n", [2, 1000, B + 1])
    @pytest.mark.parametrize("spec", _mlps(WIDE_MLPS, 4))
    def test_wide_layers_equal_one_unblocked_pass(self, spec, n):
        self._check_one_unblocked_pass(spec, n)

    @staticmethod
    def _check_one_unblocked_pass(spec, n):
        rng = np.random.default_rng(n)
        params = init_params(spec)
        params.flat += rng.normal(scale=0.2, size=params.flat.shape)  # biases off zero
        X = rng.normal(size=(n, spec.input_dim))
        y = (rng.uniform(size=n) > 0.5).astype(float)
        raw, yhat, loss = _unblocked(params, spec, X, y)
        assert np.array_equal(raw_scores(params, spec, X), raw)
        assert np.array_equal(forward(params, spec, X), yhat)
        got_yhat, got_loss = forward_loss(params, spec, X, y)
        assert np.array_equal(got_yhat, yhat)
        assert got_loss == loss

    def test_a_whole_split_forward_reuses_one_set_of_block_buffers(self):
        spec = ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=4)
        params = init_params(spec)
        X = np.random.default_rng(0).normal(size=(20000, 5))
        raw_scores(params, spec, X)  # warm-up: nothing first-call-only is counted
        tracemalloc.start()
        try:
            raw_scores(params, spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_set = (self.B + 1) * (64 + 32 + 1) * 8  # one block-high array per layer
        assert peak - X.shape[0] * 8 <= 1.25 * one_set

    # One unblocked pass over the 12513 x 102 LR input differs in the last bit
    # between one and two OpenBLAS threads; the blocked one must not.
    THREADS_CODE = (
        "import hashlib\n"
        "import numpy as np\n"
        "from relfair.models import ModelSpec, forward, init_params\n"
        "for spec, n in ((ModelSpec(kind='lr', input_dim=102, seed=3), 12513),\n"
        "                (ModelSpec(kind='mlp', input_dim=5, hidden_dims=(64, 32), seed=3),"
        " 6000)):\n"
        "    X = np.random.default_rng(1).normal(size=(n, spec.input_dim))\n"
        "    print(hashlib.sha256(forward(init_params(spec), spec, X).tobytes()).hexdigest())\n"
    )

    def test_scores_do_not_depend_on_blas_threads(self):
        digests = [run_python(["-c", self.THREADS_CODE], threads) for threads in (1, 2)]
        assert len(digests[0].split()) == 2
        assert digests[0] == digests[1]


class TestForward:
    def test_zero_params_give_half(self):
        spec = ModelSpec(kind="lr", input_dim=4, seed=0)
        params = init_params(spec)
        params.weights[0][:] = 0.0
        X = np.random.default_rng(0).normal(size=(7, 4))
        assert forward(params, spec, X) == pytest.approx(np.full(7, 0.5))

    def test_single_feature_at_zero(self):
        spec = ModelSpec(kind="lr", input_dim=1, seed=0)
        params = init_params(spec)
        params.weights[0][:] = 1.0
        assert forward(params, spec, [[0.0]]) == pytest.approx([0.5])

    def test_svm_exposes_margin_and_prob(self):
        spec = ModelSpec(kind="svm", input_dim=3, seed=2)
        params = init_params(spec)
        X = np.random.default_rng(1).normal(size=(5, 3))
        m = raw_scores(params, spec, X)
        p = forward(params, spec, X)
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-m)))

    def test_batching_invariance(self):
        rng = np.random.default_rng(2)
        for spec in ALL_SPECS:
            params = init_params(spec)
            X = rng.normal(size=(11, spec.input_dim))
            whole = forward(params, spec, X)
            parts = np.concatenate([forward(params, spec, X[:4]), forward(params, spec, X[4:])])
            assert whole == pytest.approx(parts, abs=1e-14)

    def test_dimension_mismatch(self):
        spec = ModelSpec(kind="lr", input_dim=4, seed=0)
        with pytest.raises(ValueError):
            forward(init_params(spec), spec, np.zeros((3, 5)))

    def test_labels_of_the_wrong_shape_are_named(self):
        spec = ModelSpec(kind="lr", input_dim=2, seed=0)
        with pytest.raises(ValueError, match=r"^y must be \(3,\), got \(2,\)$"):
            forward_loss(init_params(spec), spec, np.zeros((3, 2)), np.zeros(2))


class TestLossAndGrad:
    def test_perfect_prediction_near_zero_loss(self):
        spec = ModelSpec(kind="lr", input_dim=1, seed=0)
        params = init_params(spec)
        params.weights[0][:] = 50.0  # saturates the sigmoid to the clamp boundary
        X = np.array([[-1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 1.0])
        loss, _ = loss_and_grad(params, spec, X, y)
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_zero_extra_matches_pure_bce(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(kind="mlp", input_dim=4, hidden_dims=(6, 3), seed=1)
        params = init_params(spec)
        X = rng.normal(size=(9, 4))
        y = (rng.uniform(size=9) > 0.5).astype(float)
        l0, g0 = loss_and_grad(params, spec, X, y)
        l1, g1 = loss_and_grad(
            params, spec, X, y, extra_grad_on_yhat=lambda yhat: np.zeros(9)
        )
        assert l0 == l1
        for a, b in zip(g0.arrays(), g1.arrays()):
            assert np.array_equal(a, b)

    def test_extra_is_a_function_of_this_forward(self):
        rng = np.random.default_rng(4)
        spec = ModelSpec(kind="mlp", input_dim=4, hidden_dims=(6, 3), seed=2)
        params = init_params(spec)
        X = rng.normal(size=(7, 4))
        y = (rng.uniform(size=7) > 0.5).astype(float)
        seen = []

        def extra(yhat):
            seen.append(yhat)
            return np.zeros(len(yhat))

        loss_and_grad(params, spec, X, y, extra_grad_on_yhat=extra)
        assert len(seen) == 1
        assert np.array_equal(seen[0], forward(params, spec, X))
        with pytest.raises(ValueError, match="one entry per row"):
            loss_and_grad(params, spec, X, y, extra_grad_on_yhat=lambda yhat: np.zeros(6))

    def test_a_workspace_too_small_for_the_batch_is_named(self):
        spec = ModelSpec(kind="lr", input_dim=2, seed=0)
        params = init_params(spec)
        with pytest.raises(ValueError, match="^a workspace of 2 rows cannot hold 3 rows$"):
            loss_and_grad(params, spec, np.zeros((3, 2)), np.zeros(3),
                          workspace=Workspace(params, 2))

    @pytest.mark.parametrize("kind", ["lr", "svm", "mlp"])
    @pytest.mark.parametrize("with_extra", [False, True])
    def test_gradient_matches_finite_differences(self, kind, with_extra):
        rng = np.random.default_rng(11 if with_extra else 7)
        for trial in range(8):
            n = int(rng.integers(3, 16))
            d = int(rng.integers(2, 8))
            hidden = (int(rng.integers(2, 6)), int(rng.integers(2, 5)))
            spec = ModelSpec(
                kind=kind,
                input_dim=d,
                hidden_dims=hidden if kind == "mlp" else (),
                seed=trial,
            )
            params = init_params(spec)
            for w in params.weights:
                w += rng.normal(scale=0.3, size=w.shape)
            for b in params.biases:
                b += rng.normal(scale=0.1, size=b.shape)
            X = rng.normal(size=(n, d))
            y = (rng.uniform(size=n) > 0.5).astype(float)
            if kind == "svm":
                # keep the hinge kink |1 - t*m| away from the FD probe
                m = raw_scores(params, spec, X)
                t = 2 * y - 1
                keep = np.abs(1.0 - t * m) > 1e-2
                X, y = X[keep], y[keep]
                if len(y) == 0:
                    continue
            extra = rng.normal(scale=0.5, size=len(y)) if with_extra else None
            loss, analytic = loss_and_grad(
                params, spec, X, y,
                extra_grad_on_yhat=(lambda yhat: extra) if with_extra else None,
            )
            yhat, loss_only = forward_loss(params, spec, X, y)
            assert loss_only == loss
            assert np.array_equal(yhat, forward(params, spec, X))
            numeric = numeric_grad(params, spec, X, y, extra)
            for ga, gn in zip(analytic.arrays(), numeric.arrays()):
                worst = max(
                    rel_err(a, n_)
                    for a, n_ in zip(ga.ravel(), gn.ravel())
                )
                assert worst < 1e-4

    @pytest.mark.parametrize("kind", ["lr", "svm", "mlp"])
    def test_loss_decreases_on_separable_data(self, kind):
        rng = np.random.default_rng(21)
        n, d = 60, 3
        y = (rng.uniform(size=n) > 0.5).astype(float)
        X = rng.normal(size=(n, d)) + 3.0 * (2 * y - 1)[:, None]
        spec = ModelSpec(kind=kind, input_dim=d, hidden_dims=(8, 4) if kind == "mlp" else (), seed=5)
        params = init_params(spec)
        # shrink the init so no model starts already past the hinge margin
        params.weights[-1] *= 0.1
        losses = []
        assert loss_and_grad(params, spec, X, y)[0] > 0.0
        for _ in range(50):
            loss, grad = loss_and_grad(params, spec, X, y)
            losses.append(loss)
            for w, gw in zip(params.weights, grad.weights):
                w -= 0.01 * gw
            for b, gb in zip(params.biases, grad.biases):
                b -= 0.01 * gb
        assert losses[-1] < losses[0]
        # broadly monotone: no step may blow the loss back above the start
        assert max(losses[1:]) <= losses[0] + 1e-9


def _written_out_loss_and_grad(params, spec, X, y, extra_grad_on_yhat):
    """``loss_and_grad`` of one batch, a fresh array for every op, grads flat."""
    acts, h = [X], X
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if i < len(params.weights) - 1:
            h = np.maximum(z, 0.0)
            acts.append(h)
        else:
            raw = z[:, 0]
    yhat = 1.0 / (1.0 + np.exp(-raw))
    extra = None if extra_grad_on_yhat is None else extra_grad_on_yhat(yhat)
    if spec.kind == "svm":
        t = 2.0 * y - 1.0
        margin_loss = np.maximum(0.0, 1.0 - t * raw)
        loss = float(margin_loss.sum())
        d_raw = -t * (margin_loss > 0.0)
        if extra is not None:
            d_raw = d_raw + extra * yhat * (1.0 - yhat)
    else:
        yc = np.clip(yhat, PROB_EPS, 1.0 - PROB_EPS)
        loss = float(-(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc)).sum())
        d_yhat = (yc - y) / (yc * (1.0 - yc))
        if extra is not None:
            d_yhat = d_yhat + extra
        d_raw = d_yhat * yhat * (1.0 - yhat)
    grads, delta = [], d_raw[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        grads[:0] = [acts[i].T @ delta, delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ params.weights[i].T) * (acts[i] > 0.0)
    return loss, np.concatenate([g.ravel() for g in grads])


class TestInPlaceBackward:
    """``loss_and_grad`` equals a backward pass written out with fresh arrays."""

    @pytest.mark.parametrize("n", [1, 2, 128, 256, 257, 1000])
    @pytest.mark.parametrize("with_extra", [False, True])
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="lr", input_dim=12, seed=6),
        ModelSpec(kind="svm", input_dim=12, seed=6),
        ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=6),
        *_other_mlps(6),
        *_mlps(WIDE_MLPS, 6),
    ], ids=lambda spec: spec.kind)
    def test_bit_equal_to_the_written_out_backward(self, spec, with_extra, n):
        rng = np.random.default_rng(n)
        params = init_params(spec)
        params.flat += rng.normal(scale=0.2, size=params.flat.shape)  # biases off zero
        X = rng.normal(size=(n, spec.input_dim))
        y = (rng.uniform(size=n) > 0.5).astype(float)
        extra = (lambda yhat: np.sin(7.0 * yhat) - 0.3) if with_extra else None
        loss, grads = loss_and_grad(params, spec, X, y, extra_grad_on_yhat=extra)
        want_loss, want_flat = _written_out_loss_and_grad(params, spec, X, y, extra)
        assert loss == want_loss
        assert grads.flat.tobytes() == want_flat.tobytes()
        if spec.kind == "mlp":  # some first-layer ReLUs are off, so the mask acts
            assert np.any(X @ params.weights[0] + params.biases[0] < 0.0)


def _extra_block(extras):
    """A stack's ``extra_grad_on_yhat`` that gives model j ``extras[j]``
    (None: nothing), in the ``(models, block)`` form, its rows last first."""
    models = [j for j, extra in reversed(list(enumerate(extras))) if extra is not None]
    return lambda yhat: (models, np.array([extras[j] for j in models]))


class TestStack:
    """Each model of a ``ParamStack`` gets the bits it gets alone."""

    @pytest.mark.parametrize("n", [1, 2, 128, 257, 1000])
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="lr", input_dim=12, seed=6),
        ModelSpec(kind="svm", input_dim=12, seed=6),
        ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=6),
        *_other_mlps(6),
        *_mlps(WIDE_MLPS, 6),
    ], ids=lambda spec: spec.kind)
    def test_each_model_equals_the_model_alone(self, spec, n):
        rng = np.random.default_rng(n)
        models = []
        for _ in range(3):
            params = init_params(spec)
            params.flat += rng.normal(scale=0.3, size=params.flat.shape)
            models.append(params)
        stack = ParamStack(np.stack([p.flat for p in models]), models[0].shapes)
        X = rng.normal(size=(n, spec.input_dim))
        y = (rng.uniform(size=n) > 0.5).astype(float)
        extras = [rng.normal(size=n), None, rng.normal(size=n)]  # the middle one has none
        loss, grads = loss_and_grad(stack, spec, X, y, extra_grad_on_yhat=_extra_block(extras))
        yhat, losses = forward_loss(stack, spec, X, y)
        raw = raw_scores(stack, spec, X)
        for j, (params, extra) in enumerate(zip(models, extras)):
            alone = None if extra is None else (lambda yhat, extra=extra: extra)
            want_loss, want_grads = loss_and_grad(params, spec, X, y, extra_grad_on_yhat=alone)
            assert loss[j] == want_loss
            assert grads.flat[j].tobytes() == want_grads.flat.tobytes()
            want_yhat, want_loss = forward_loss(params, spec, X, y)
            assert yhat[j].tobytes() == want_yhat.tobytes() and losses[j] == want_loss
            assert raw[j].tobytes() == raw_scores(params, spec, X).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 128, 257, 1000])
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="lr", input_dim=12, seed=6),
        ModelSpec(kind="svm", input_dim=12, seed=6),
        ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=6),
        *_other_mlps(6),
        *_mlps(WIDE_MLPS, 6),
    ], ids=lambda spec: spec.kind)
    def test_each_model_on_its_own_X_equals_the_model_alone(self, spec, n):
        # one X and y per model, (k, n, d) and (k, n), as a stack across seeds takes them
        rng = np.random.default_rng(n)
        models = [init_params(spec) for _ in range(3)]
        for params in models:
            params.flat += rng.normal(scale=0.3, size=params.flat.shape)
        stack = ParamStack(np.stack([p.flat for p in models]), models[0].shapes)
        X = rng.normal(size=(3, n, spec.input_dim))
        y = (rng.uniform(size=(3, n)) > 0.5).astype(float)
        extras = [rng.normal(size=n), None, rng.normal(size=n)]
        loss, grads = loss_and_grad(stack, spec, X, y, extra_grad_on_yhat=_extra_block(extras))
        yhat, losses = forward_loss(stack, spec, X, y)
        raw = raw_scores(stack, spec, X)
        for j, (params, extra) in enumerate(zip(models, extras)):
            alone = None if extra is None else (lambda yhat, extra=extra: extra)
            want_loss, want_grads = loss_and_grad(params, spec, X[j], y[j],
                                                  extra_grad_on_yhat=alone)
            assert loss[j] == want_loss
            assert grads.flat[j].tobytes() == want_grads.flat.tobytes()
            want_yhat, want_loss = forward_loss(params, spec, X[j], y[j])
            assert yhat[j].tobytes() == want_yhat.tobytes() and losses[j] == want_loss
            assert raw[j].tobytes() == raw_scores(params, spec, X[j]).tobytes()

    def test_one_X_per_model_is_checked(self):
        spec = ModelSpec(kind="mlp", input_dim=2, hidden_dims=(8,), seed=0)
        params = init_params(spec)
        stack = ParamStack(np.tile(params.flat, (3, 1)), params.shapes)
        with pytest.raises(ValueError,
                           match=r"^X must be \(n, 2\) or \(3, n, 2\), got \(2, 4, 2\)$"):
            forward(stack, spec, np.zeros((2, 4, 2)))
        with pytest.raises(ValueError, match=r"^y must be \(3, 4\), got \(4,\)$"):
            forward_loss(stack, spec, np.zeros((3, 4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="^a workspace for one X per model takes only that"):
            loss_and_grad(stack, spec, np.zeros((3, 4, 2)), np.zeros((3, 4)),
                          workspace=Workspace(stack, 4))

    def test_layers_view_the_block(self):
        spec = ModelSpec(kind="mlp", input_dim=5, hidden_dims=(8, 4), seed=1)
        params = init_params(spec)
        stack = ParamStack(np.tile(params.flat, (3, 1)), params.shapes)
        stack.flat += np.arange(3.0)[:, None]  # each model its own
        for j in range(3):
            member = stack.member(j)
            assert member.flat.tobytes() == (params.flat + j).tobytes()
            for wb, w, b, layer in zip(stack.stacked, stack.weights, stack.biases, member.stacked):
                assert np.shares_memory(wb, stack.flat)
                assert np.array_equal(wb[j], layer)
                assert np.array_equal(w[j], layer[:-1]) and np.array_equal(b[j, 0], layer[-1])

    def test_a_workspace_for_another_number_of_models_is_named(self):
        spec = ModelSpec(kind="lr", input_dim=2, seed=0)
        params = init_params(spec)
        stack = ParamStack(np.tile(params.flat, (3, 1)), params.shapes)
        with pytest.raises(ValueError, match="^a workspace of 1 models cannot hold 3 models$"):
            loss_and_grad(stack, spec, np.zeros((2, 2)), np.zeros(2),
                          workspace=Workspace(init_params(spec), 2))

    def test_a_stack_extra_gradient_block_of_another_shape_is_refused(self):
        spec = ModelSpec(kind="lr", input_dim=2, seed=0)
        params = init_params(spec)
        stack = ParamStack(np.tile(params.flat, (3, 1)), params.shapes)
        message = r"^extra_grad_on_yhat must give a \(2, 2\) block, one row per model it names"
        for block in (np.zeros((3, 2)), np.zeros((2, 1)), np.zeros(2)):
            with pytest.raises(ValueError, match=message + re.escape(f", got {block.shape}") + "$"):
                loss_and_grad(stack, spec, np.zeros((2, 2)), np.zeros(2),
                              extra_grad_on_yhat=lambda yhat, block=block: ([0, 2], block))


def _npy_bytes():
    """A one-array .npy file, which ``np.load`` reads as an array, not an archive."""
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        for spec in ALL_SPECS:
            params = init_params(spec)
            path = tmp_path / f"{spec.kind}.npz"
            save_checkpoint(path, params, spec)
            loaded, loaded_spec = load_checkpoint(path)
            assert loaded_spec == spec
            for a, b in zip(params.arrays(), loaded.arrays()):
                assert np.array_equal(a, b)

    def test_version_check(self, tmp_path):
        spec = ALL_SPECS[0]
        path = tmp_path / "m.npz"
        save_checkpoint(path, init_params(spec), spec)
        import json

        import numpy as np

        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["format_version"] = 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @staticmethod
    def _rewritten(path, change):
        """Save an mlp checkpoint at ``path``, then rewrite its arrays with ``change``."""
        spec = ALL_SPECS[2]
        save_checkpoint(path, init_params(spec), spec)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        change(arrays)
        np.savez(path, **arrays)
        return path

    def test_an_archive_without_meta_is_named(self, tmp_path):
        path = self._rewritten(tmp_path / "m.npz", lambda arrays: arrays.pop("meta"))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: no array 'meta' in the archive")):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta, fault", [
        (b"\xff", "meta is not a JSON object"),
        (b"[1]", "meta is not a JSON object"),
        (json.dumps({"format_version": 1}).encode(), "meta has no 'kind'"),
    ], ids=["not-utf8", "not-an-object", "no-kind"])
    def test_a_meta_without_the_spec_is_named(self, tmp_path, meta, fault):
        def replaced(arrays):
            arrays["meta"] = np.frombuffer(meta, np.uint8)

        path = self._rewritten(tmp_path / "m.npz", replaced)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {fault}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_layers, fault", [
        (4, "no array 'w3' in the archive"), (2, "2 layers stored, but the spec has 3"),
    ], ids=["more", "fewer"])
    def test_a_layer_count_that_is_not_the_spec_is_named(self, tmp_path, n_layers, fault):
        def relayered(arrays):
            meta = json.loads(bytes(arrays["meta"]).decode())
            arrays["meta"] = np.frombuffer(
                json.dumps({**meta, "n_layers": n_layers}).encode(), np.uint8)

        path = self._rewritten(tmp_path / "m.npz", relayered)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {fault}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, fault", [
        ("input_dim", "5", "input_dim must be an integer, got '5'"),
        ("input_dim", 5.0, "input_dim must be an integer, got 5.0"),
        ("n_layers", "3", "n_layers must be an integer, got '3'"),
        ("hidden_dims", 5, "hidden_dims must be a list of widths, got 5"),
    ], ids=["input_dim-str", "input_dim-float", "n_layers-str", "hidden_dims-int"])
    def test_a_meta_field_of_the_wrong_type_is_named(self, tmp_path, field, value, fault):
        def retyped(arrays):
            meta = json.loads(bytes(arrays["meta"]).decode())
            arrays["meta"] = np.frombuffer(json.dumps({**meta, field: value}).encode(), np.uint8)

        path = self._rewritten(tmp_path / "m.npz", retyped)
        with pytest.raises(ValueError, match="^" + re.escape(f"checkpoint {path}: {fault}") + "$"):
            load_checkpoint(path)

    def test_a_shape_the_spec_does_not_give_is_named(self, tmp_path):
        def narrower(arrays):
            arrays["w1"] = arrays["w1"][:, :3]

        path = self._rewritten(tmp_path / "m.npz", narrower)  # the spec's w1 is 8 x 4
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: w1 has shape (8, 3), the spec gives (8, 4)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"not a checkpoint\n", b"", _npy_bytes()],
                             ids=["text", "empty", "npy"])
    def test_a_file_that_is_not_an_archive_is_named(self, tmp_path, content):
        path = tmp_path / "m.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: not an .npz archive")):
            load_checkpoint(path)

    def test_a_truncated_archive_is_named_and_closed(self, tmp_path):
        spec = ALL_SPECS[2]
        path = tmp_path / "m.npz"
        save_checkpoint(path, init_params(spec), spec)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match=re.escape(
                    f"checkpoint {path}: not an .npz archive")):
                load_checkpoint(path)
            gc.collect()  # a file left open warns when it is collected
        assert [w for w in seen if issubclass(w.category, ResourceWarning)] == []

    def test_a_damaged_array_is_named(self, tmp_path):
        spec = ALL_SPECS[2]
        path = tmp_path / "m.npz"
        save_checkpoint(path, init_params(spec), spec)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # inside a stored array: its CRC no longer holds
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: array 'w1'")
                           + r" is unreadable: Bad CRC-32"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["w0", "b1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_is_rejected_by_name(self, tmp_path, name, bad):
        spec = ALL_SPECS[2]
        path = tmp_path / "m.npz"
        save_checkpoint(path, init_params(spec), spec)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name].flat[-1] = bad
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"{name} holds a NaN or inf"):
            load_checkpoint(path)
