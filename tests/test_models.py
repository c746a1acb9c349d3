import pickle
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

    @pytest.mark.parametrize("hidden_dims", [(), (0,), (-3,), (8, 0)])
    def test_mlp_widths_are_taken_as_given_or_rejected(self, hidden_dims):
        with pytest.raises(ValueError, match="hidden_dims"):
            ModelSpec(kind="mlp", input_dim=3, hidden_dims=hidden_dims)


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

    def test_copy_owns_its_vector(self):
        params = init_params(ALL_SPECS[2])
        copy = params.copy()
        assert not np.shares_memory(copy.flat, params.flat)
        copy.flat[:] = 0.0
        assert np.all(params.weights[0] != 0.0)


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

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 17])
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="lr", input_dim=12, seed=4),
        ModelSpec(kind="svm", input_dim=12, seed=4),
        ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=4),
    ], ids=lambda spec: spec.kind)
    def test_equal_to_one_unblocked_pass(self, spec, n):
        rng = np.random.default_rng(n)
        params = init_params(spec)
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

    @pytest.mark.parametrize("n", [1, 128, 257])
    @pytest.mark.parametrize("with_extra", [False, True])
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="lr", input_dim=12, seed=6),
        ModelSpec(kind="svm", input_dim=12, seed=6),
        ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=6),
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
