import dataclasses
import gc
import weakref

import numpy as np
import pytest

from relfair import training
from relfair.data import Dataset, EncodedDataset, RelatedFeatureSet, TrainView, encode, split
from relfair.metrics import MetricUndefinedError, delta_dp, delta_eo
from relfair.models import ModelParams, ModelSpec, forward, init_params, loss_and_grad
from relfair.objective import penalty_grad_yhat, related_penalty
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SELECTION_PENALTY_SLACK,
    TRACE_FIELDS,
    Adam,
    EpochRecord,
    SeedData,
    TrainConfig,
    TrainTrace,
    TrainingDivergedError,
    _adam_pass,
    _Stack,
    pretrain,
    run_seeds,
    run_single,
    train_fairrf,
    train_variant,
)

SPEC = SyntheticSpec(n=1500, seed=0)
RAW = generate(SPEC)
RELATED = related_features(SPEC)
BASE_CFG = TrainConfig(
    eta=0.3,
    beta=0.5,
    learning_rate=0.01,
    pretrain_epochs=5,
    max_epochs=15,
    batch_size=64,
    early_stop_patience=4,
)


def splits(seed=0):
    return split(RAW, seed=seed)


def pretrain_one(spec, params, train, evaluation, cfg):
    """``pretrain`` of one seed: its parameters; raises the error it gave."""
    (outcome,) = pretrain([SeedData(spec, params, train, evaluation)], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def without_group(d):
    """``d`` without its sensitive column."""
    schema = tuple(f for f in d.schema if f.role != "sensitive")
    return Dataset(columns={f.name: d.columns[f.name] for f in schema}, schema=schema,
                   vocab=d.vocab)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "eta", "beta", "learning_rate", "pretrain_epochs", "max_epochs",
            "batch_size", "early_stop_patience",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": -0.1},
            {"beta": 0.0},
            {"learning_rate": 0.0},
            {"pretrain_epochs": -1},
            {"max_epochs": 0},
            {"batch_size": 0},
            {"early_stop_patience": 0},
            {"batch_size": 1.5},
            {"max_epochs": 2.0},
            {"pretrain_epochs": True},
            {"eta": "0.3"},
            {"learning_rate": True},
            {"beta": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = TrainConfig(eta=np.float32(0.5), batch_size=np.int64(32))
        assert cfg.batch_size == 32


def textbook_adam(arrays, grad_steps, lr):
    """Adam as written per parameter array, each array with its own moments."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grad_steps, start=1):
        scale = lr * np.sqrt(1 - b2**t) / (1 - b1**t)
        for a, g, m_a, v_a in zip(arrays, grads, m, v):
            m_a *= b1
            m_a += (1 - b1) * g
            v_a *= b2
            v_a += (1 - b2) * g * g
            a -= scale * m_a / (np.sqrt(v_a) + ADAM_EPS)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = np.array([10.0])
        opt = Adam(x, lr=0.1)
        for _ in range(500):
            opt.step(x, 2 * (x - 3.0))
        assert x[0] == pytest.approx(3.0, abs=1e-3)

    def test_one_vector_step_equals_the_per_array_update(self):
        spec = ModelSpec(kind="mlp", input_dim=5, hidden_dims=(64, 32), seed=0)
        params, reference = init_params(spec), init_params(spec)
        rng = np.random.default_rng(0)
        grad_steps = [
            [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=a.shape)
             for a in params.arrays()]
            for _ in range(300)
        ]
        opt = Adam(params.flat, lr=0.01)
        for grads in grad_steps:
            opt.step(params.flat, ModelParams(grads[0::2], grads[1::2]).flat)
        textbook_adam(reference.arrays(), grad_steps, lr=0.01)
        assert opt.t == 300
        for fused, per_array in zip(params.arrays(), reference.arrays()):
            assert np.array_equal(fused, per_array)


def reference_pass(spec, params, m, v, t, train, cfg, rng, penalty, lr):
    """``_adam_pass`` as written with a fresh array for every op; returns t.

    Each batch is gathered by fancy indexing, ``loss_and_grad`` runs without
    a workspace, the penalty gradient is the checked public one and the Adam
    update is its five expressions on (params.flat, m, v).
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    order = rng.permutation(train.n)
    for start in range(0, train.n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        Xb = train.X[idx]
        extra = None
        if penalty is not None:
            reg, related, lam = penalty
            reg_b = Xb if reg is None else reg[idx]
            extra = lambda yhat: cfg.eta * penalty_grad_yhat(reg_b, related, lam, yhat)
        _, grads = loss_and_grad(params, spec, Xb, train.y[idx], extra_grad_on_yhat=extra)
        g, theta = grads.flat, params.flat
        t += 1
        scale = lr * np.sqrt(1 - b2**t) / (1 - b1**t)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        theta -= scale * m / (np.sqrt(v) + ADAM_EPS)
    return t


def _pass_penalty(kind, rng, n):
    """A ``reference_pass`` penalty ``(reg, related, lam)`` of ``kind``, or None."""
    if kind == "inputs":  # a one-column and a two-column feature
        return None, RelatedFeatureSet(("a", "b"), ((1,), (2, 3))), np.array([0.3, 0.7])
    if kind == "group-column":  # the constrain_s shape: reg is not X
        related = RelatedFeatureSet(("__sensitive__",), ((0,),))
        return (rng.uniform(size=n) > 0.5).astype(float)[:, None], related, related.lambda0
    return None


class _Row:
    """A stack row as ``_adam_pass`` reads it: its ``SeedData`` and a fixed penalty entry."""

    def __init__(self, data, penalty):
        self.data, self._penalty = data, penalty

    def penalty(self):
        return self._penalty


class TestAdamPass:
    """A pass in its per-pass buffers moves no bit against the written-out
    pass: for a stack of one, and for each model of a larger stack, whose
    rows train on one seed's split or on two."""

    BATCH = 16
    SPECS = [
        ModelSpec(kind="lr", input_dim=6, seed=2),
        ModelSpec(kind="svm", input_dim=6, seed=2),
        ModelSpec(kind="mlp", input_dim=6, hidden_dims=(16, 8), seed=2),
    ]

    @pytest.mark.parametrize("n", [10, 50, 49], ids=["n<batch", "short-last", "one-row-last"])
    @pytest.mark.parametrize("penalty", ["none", "inputs", "group-column"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_bit_equal_to_the_reference_pass(self, spec, penalty, n):
        self._check(spec, [penalty], [0.5], n)

    # the two "inputs" models share the batch's related block
    @pytest.mark.parametrize("n", [50, 49], ids=["short-last", "one-row-last"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_each_model_of_a_stack_is_bit_equal_to_its_reference_pass(self, spec, n):
        self._check(spec, ["inputs", "none", "group-column", "inputs"], [0.5, 0.5, 0.5, 0.2], n)

    # rows 0 and 2 train on seed 3's split, rows 1 and 3 on seed 4's
    @pytest.mark.parametrize("n", [50, 49], ids=["short-last", "one-row-last"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_each_model_of_a_stack_across_seeds_is_bit_equal_to_its_reference_pass(self,
                                                                                   spec, n):
        self._check(spec, ["inputs", "none", "group-column", "inputs"], [0.5, 0.5, 0.5, 0.2], n,
                    seeds=[3, 4, 3, 4])

    def _check(self, spec, kinds, etas, n, seeds=None):
        seeds = seeds or [2] * len(kinds)  # each row's seed
        rng = np.random.default_rng(n)
        views = {seed: TrainView(X=rng.normal(size=(n, 6)),
                                 y=(rng.uniform(size=n) > 0.5).astype(float))
                 for seed in dict.fromkeys(seeds)}
        pens = [_pass_penalty(kind, rng, n) for kind in kinds]
        cfg = TrainConfig(learning_rate=0.05, batch_size=self.BATCH)
        cfgs = [dataclasses.replace(cfg, eta=eta) for eta in etas]
        params = init_params(spec)
        params.flat += rng.normal(scale=0.2, size=params.flat.shape)  # biases off zero
        by_seed = {seed: SeedData(ModelSpec(spec.kind, 6, spec.hidden_dims, seed),
                                  params, view, view)
                   for seed, view in views.items()}
        rows = [_Row(by_seed[seed], None if p is None else (eta, *p))
                for seed, p, eta in zip(seeds, pens, etas)]
        stack = _Stack([by_seed[seed] for seed in seeds], cfg.learning_rate, rows, 2)
        references = [params.copy() for _ in kinds]
        moments = [(np.zeros_like(params.flat), np.zeros_like(params.flat)) for _ in kinds]
        t = [0] * len(kinds)
        rng_refs = [np.random.default_rng([seed, 2]) for seed in seeds]
        for epoch in range(3):  # later passes start from moved moments
            _adam_pass(spec, stack, cfg, f"epoch {epoch}")
            assert stack.outcomes == [None] * len(kinds)
            for j, (reference, (m, v)) in enumerate(zip(references, moments)):
                t[j] = reference_pass(spec, reference, m, v, t[j], views[seeds[j]], cfgs[j],
                                      rng_refs[j], pens[j], cfg.learning_rate)
                assert stack.params.flat[j].tobytes() == reference.flat.tobytes()
                assert stack.opt.m[j].tobytes() == m.tobytes()
                assert stack.opt.v[j].tobytes() == v.tobytes()
        assert stack.opt.t == t[0] == 3 * -(-n // self.BATCH)
        assert set(t) == {stack.opt.t}


class TestStackDrop:
    """``_Stack.drop`` keeps a stack's parameter rows, Adam's moment rows, its
    rows' own state and its runs aligned, and records each dropped run's
    outcome."""

    def test_drop_compacts_the_rows_and_records_the_outcomes(self):
        spec = ModelSpec(kind="mlp", input_dim=5, hidden_dims=(8, 4), seed=1)
        params = init_params(spec)
        stack = _Stack([SeedData(spec, params, None, None)] * 5, 0.01, "abcde", 1)
        rows = np.arange(5.0)[:, None]  # each run its own parameters and moments
        stack.params.flat += rows
        stack.opt.m += 10 * rows
        stack.opt.v += 100 * rows
        assert stack.drop({}) == [0, 1, 2, 3, 4] and stack.runs == [0, 1, 2, 3, 4]
        failed, done = RuntimeError("run 1"), ("params", "trace")
        assert stack.drop({1: failed}) == [0, 2, 3, 4]
        assert stack.drop({2: done, 0: "run 0"}) == [1, 3]  # runs 3 and 0
        assert stack.runs == [2, 4] and stack.rows == ["c", "e"]
        assert stack.outcomes == ["run 0", failed, None, done, None]
        block = stack.params.flat
        assert block.flags.c_contiguous and stack.params.k == 2
        assert block.tobytes() == np.stack([params.flat + 2, params.flat + 4]).tobytes()
        assert all(np.shares_memory(view, block) for views in (
            stack.params.stacked, stack.params.weights, stack.params.biases) for view in views)
        kept = np.array([[2.0], [4.0]])
        assert np.array_equal(stack.opt.m, np.broadcast_to(10 * kept, block.shape))
        assert np.array_equal(stack.opt.v, np.broadcast_to(100 * kept, block.shape))
        stack.opt.step(block, np.ones_like(block))  # the scratch arrays were compacted too


def test_lambda_is_checked_where_the_fair_loop_sets_it(monkeypatch):
    # the theta-phase gradient skips the lambda check, so the refresh makes it
    train_raw, eval_raw, test_raw = splits()
    from relfair.data import encode, resolve_related

    enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
    related = resolve_related(train_raw.schema, enc_train, RELATED)
    spec = ModelSpec(kind="lr", input_dim=enc_train.n_columns, seed=0)
    solve_lambda, refreshes = training.solve_lambda, []

    def off_simplex_at_epoch_1(scores, beta):
        refreshes.append(scores)
        solution = solve_lambda(scores, beta)
        if len(refreshes) == 2:
            return dataclasses.replace(solution, lam=solution.lam * 1.5)
        return solution

    steps = []

    def counting_loss_and_grad(*args, **kwargs):
        steps.append(args[2].shape[0])
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(training, "solve_lambda", off_simplex_at_epoch_1)
    monkeypatch.setattr(training, "loss_and_grad", counting_loss_and_grad)
    train, evaluation = enc_train.train_view(), enc_eval.train_view()
    with pytest.raises(TrainingDivergedError, match="epoch 1: lambda left the simplex"):
        train_fairrf(spec, init_params(spec), train, evaluation, related, BASE_CFG)
    # two full passes, epochs 0 and 1, and no step with the bad lambda
    assert len(refreshes) == 2
    assert len(steps) == 2 * -(-train.n // BASE_CFG.batch_size)
    assert sum(steps) == 2 * train.n


class TestPretrain:
    def _setup(self):
        from relfair.models import ModelSpec

        train_raw, eval_raw, test_raw = splits()
        from relfair.data import encode

        enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
        spec = ModelSpec(kind="lr", input_dim=enc_train.n_columns, seed=0)
        return spec, init_params(spec), enc_train.train_view(), enc_eval

    def test_separable_data_learned(self):
        from relfair.data import encode
        from relfair.metrics import accuracy
        from relfair.models import ModelSpec, forward

        rng = np.random.default_rng(0)
        n = 400
        y = (rng.uniform(size=n) > 0.5).astype(float)
        X = rng.normal(size=(n, 3)) + 4.0 * (2 * y - 1)[:, None]
        from relfair.data import TrainView

        view = TrainView(X=X[: n // 2], y=y[: n // 2])
        ev = TrainView(X=X[n // 2 :], y=y[n // 2 :])
        spec = ModelSpec(kind="lr", input_dim=3, seed=0)
        cfg = dataclasses.replace(BASE_CFG, pretrain_epochs=30)
        params = pretrain_one(spec, init_params(spec), view, ev, cfg)
        assert accuracy(forward(params, spec, view.X), view.y) >= 0.99

    def test_zero_epochs_is_noop(self):
        cfg = dataclasses.replace(BASE_CFG, pretrain_epochs=0)
        spec, params, view, ev = self._setup()
        out = pretrain_one(spec, params, view, ev, cfg)
        for a, b in zip(params.arrays(), out.arrays()):
            assert np.array_equal(a, b)
        assert out is not params  # defensive copy, caller's params untouched

    def test_deterministic(self):
        spec, params, view, ev = self._setup()
        a = pretrain_one(spec, params, view, ev, BASE_CFG)
        b = pretrain_one(spec, params, view, ev, BASE_CFG)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("field, value", [
        ("eta", 0.0), ("beta", 7.0), ("max_epochs", 1), ("early_stop_patience", 1),
    ])
    def test_reads_none_of_the_fair_loop_fields(self, field, value):
        # the cells of a seed job share one pretrain on exactly this premise
        spec, params, view, ev = self._setup()
        other = dataclasses.replace(BASE_CFG, **{field: value})
        a = pretrain_one(spec, params, view, ev, BASE_CFG)
        b = pretrain_one(spec, params, view, ev, other)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_nan_aborts_with_diagnostics(self):
        cfg = BASE_CFG
        spec, params, view, ev = self._setup()
        bad = np.array(view.X, copy=True)
        bad[0, 0] = np.inf
        from relfair.data import TrainView

        with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
            pretrain_one(spec, params, TrainView(X=bad, y=view.y), ev, cfg)

    def test_stops_once_the_evaluation_loss_stalls(self, monkeypatch):
        # steps too small to move the eval loss by MIN_IMPROVEMENT: the first
        # epoch sets the best loss, and PRETRAIN_PATIENCE more stall
        forward_loss = training.forward_loss
        epochs = []  # pretrain forwards the evaluation split once per epoch

        def counting(*args):
            epochs.append(None)
            return forward_loss(*args)

        monkeypatch.setattr(training, "forward_loss", counting)
        spec, params, view, ev = self._setup()
        cfg = dataclasses.replace(BASE_CFG, learning_rate=1e-12, pretrain_epochs=10)
        pretrain_one(spec, params, view, ev, cfg)
        assert len(epochs) == training.PRETRAIN_PATIENCE + 1

    def test_non_finite_evaluation_loss_names_the_epoch(self):
        spec, params, view, ev = self._setup()
        X = np.array(ev.X, copy=True)
        X[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite loss at pretrain epoch 0 \(eval\)$"):
            pretrain_one(spec, params, view, TrainView(X=X, y=ev.y), BASE_CFG)


class TestEvalFairness:
    Y = np.array([0.0, 1.0, 0.0, 0.0])
    YHAT = np.array([0.2, 0.9, 0.4, 0.6])

    @pytest.mark.parametrize(
        "s, want",
        [(None, (None, None)),
         ([0, 0, 0, 0], (None, None)),  # one group: neither gap is defined
         ([0, 0, 1, 1], (None, 0.05))],  # group 1 has no positive label: no EO gap
        ids=["no_sensitive_column", "one_group", "no_positive_in_a_group"],
    )
    def test_an_unsupported_metric_is_none(self, s, want):
        evaluation = EncodedDataset(X=np.zeros((4, 1)), y=self.Y,
                                    s=None if s is None else np.array(s), column_map={})
        eo, dp = training._eval_fairness(evaluation)(self.YHAT)
        assert (eo, None if dp is None else round(dp, 12)) == want


    @pytest.mark.parametrize(
        "n_groups, positives_everywhere",
        [(2, True), (3, True), (3, False)],
        ids=["two_groups", "three_groups", "a_group_without_positives"],
    )
    def test_equals_the_public_metrics_bit_for_bit(self, n_groups, positives_everywhere):
        rng = np.random.default_rng(5)
        s = rng.integers(0, n_groups, 301)
        y = (rng.random(301) < 0.4).astype(float)
        if not positives_everywhere:
            y[s == 1] = 0.0
        evaluation = EncodedDataset(X=np.zeros((301, 1)), y=y, s=s, column_map={})
        measure = training._eval_fairness(evaluation)
        for _ in range(4):  # the group rows found once serve every call
            yhat = rng.random(301)
            eo, dp = measure(yhat)
            assert dp.hex() == delta_dp(yhat, s).hex()
            if positives_everywhere:
                assert eo.hex() == delta_eo(yhat, y, s).hex()
            else:
                assert eo is None
                with pytest.raises(MetricUndefinedError, match="group 1 has no qualifying"):
                    delta_eo(yhat, y, s)


class TestTrainFairrf:
    def test_deterministic_trace_and_params(self):
        ((a_m, (a_res,)),) = run_seeds(RAW, RELATED, [("fairrf", BASE_CFG)], "lr", [3])
        ((b_m, (b_res,)),) = run_seeds(RAW, RELATED, [("fairrf", BASE_CFG)], "lr", [3])
        assert a_res.trace.to_jsonl() == b_res.trace.to_jsonl()
        assert a_m == b_m
        for x, y in zip(a_res.params.arrays(), b_res.params.arrays()):
            assert np.array_equal(x, y)

    def test_lambda_on_simplex_every_epoch(self):
        ((res,),) = run_single(RAW, RELATED, [("fairrf", BASE_CFG)], "lr", [0])
        for rec in res.trace.records:
            lam = np.array(rec.lam)
            assert np.all(lam >= 0)
            assert lam.sum() == pytest.approx(1.0, abs=1e-8)

    def test_lambda_refresh_never_increases_its_objective(self):
        # each refresh is the exact minimizer of sum lam*eta*R + beta*|lam|^2
        ((res,),) = run_single(RAW, RELATED, [("fairrf", BASE_CFG)], "lr", [1])
        recs = res.trace.records
        for prev, cur in zip(recs, recs[1:]):
            r = np.array(cur.per_feature)  # measured before the refresh
            old = np.array(prev.lam)
            new = np.array(cur.lam)

            def obj(lam):
                return BASE_CFG.eta * float(lam @ r) + BASE_CFG.beta * float(lam @ lam)

            assert obj(new) <= obj(old) + 1e-9

    def test_eta_zero_is_inert(self):
        cfg0 = dataclasses.replace(BASE_CFG, eta=0.0)
        tr, ev, te = splits(seed=1)
        vanilla = train_variant("vanilla", tr, ev, te, RELATED, "lr", cfg0)
        fair = train_variant("fairrf", tr, ev, te, RELATED, "lr", cfg0)
        assert [r.cls_loss for r in vanilla.trace.records] == [
            r.cls_loss for r in fair.trace.records
        ]
        for a, b in zip(vanilla.params.arrays(), fair.params.arrays()):
            assert np.array_equal(a, b)

    def test_reduces_disparity_on_biased_data(self):
        (mv, _), (mf, _) = run_seeds(
            RAW, RELATED, [("vanilla", BASE_CFG), ("fairrf", BASE_CFG)], "lr", [0])
        assert mf.delta_dp < mv.delta_dp
        assert mf.delta_eo < mv.delta_eo

    def test_monotone_fairness_pressure_in_eta(self):
        finals = []
        for eta in (0.0, 0.1, 0.3):
            cfg = dataclasses.replace(BASE_CFG, eta=eta)
            tr, ev, te = splits(seed=0)
            variant = "fairrf" if eta > 0 else "fixed_lambda"
            res = train_variant(variant, tr, ev, te, RELATED, "lr", cfg)
            finals.append(res.trace.records[-1].penalty_total)
        assert finals[0] >= finals[1] >= finals[2]

    def test_requires_related_unless_inert(self):
        from relfair.data import encode
        from relfair.models import ModelSpec

        tr, ev, te = splits()
        enc_train, enc_eval, _ = encode(tr, [ev, te])
        spec = ModelSpec(kind="lr", input_dim=enc_train.n_columns, seed=0)
        with pytest.raises(ValueError):
            train_fairrf(
                spec,
                init_params(spec),
                enc_train.train_view(),
                enc_eval,
                None,
                BASE_CFG,
            )

    @pytest.mark.parametrize("override", [
        {"reg_train": np.zeros(3)}, {"reg_eval": np.zeros((2, 1))},
    ], ids=["1-d", "misaligned"])
    def test_regularized_matrices_must_align_with_the_splits(self, override):
        tr, ev, te = splits()
        enc_train, enc_eval, _ = encode(tr, [ev, te])
        spec = ModelSpec(kind="lr", input_dim=enc_train.n_columns, seed=0)
        with pytest.raises(ValueError, match="^regularized-column matrices must be 2-d "
                                             "and align with the splits$"):
            train_fairrf(spec, init_params(spec), enc_train.train_view(),
                         enc_eval.train_view(), None, dataclasses.replace(BASE_CFG, eta=0.0),
                         **override)


class TestDivergence:
    """A diverging run stops with ``TrainingDivergedError`` naming its epoch.

    Each Adam pass checks the loss at every step and the parameters once,
    after its last step.
    """

    @staticmethod
    def _run(stage, kind, cfg, poison_input=False):
        from relfair.data import TrainView, encode, resolve_related
        from relfair.models import ModelSpec

        tr, ev, te = splits()
        enc_train, enc_eval, _ = encode(tr, [ev, te])
        spec = ModelSpec(
            kind=kind, input_dim=enc_train.n_columns,
            hidden_dims=(8, 4) if kind == "mlp" else (), seed=0,
        )
        X = np.array(enc_train.X, copy=True)
        if poison_input:
            X[0, 0] = np.inf
        train = TrainView(X=X, y=enc_train.y)
        evaluation = enc_eval.train_view()
        with np.errstate(all="ignore"):
            if stage == "pretrain":
                pretrain_one(spec, init_params(spec), train, evaluation, cfg)
            else:
                related = resolve_related(tr.schema, enc_train, RELATED)
                train_fairrf(spec, init_params(spec), train, evaluation, related, cfg)

    @pytest.mark.parametrize("stage", ["pretrain", "fair"])
    def test_inf_input_cell(self, stage):
        with pytest.raises(TrainingDivergedError, match=r"epoch 0\b"):
            self._run(stage, "lr", BASE_CFG, poison_input=True)

    @pytest.mark.parametrize("stage", ["pretrain", "fair"])
    def test_mlp_at_huge_learning_rate(self, stage):
        cfg = dataclasses.replace(BASE_CFG, learning_rate=1e300)
        with pytest.raises(TrainingDivergedError, match=r"non-finite loss at (pretrain )?epoch 0$"):
            self._run(stage, "mlp", cfg)

    @pytest.mark.parametrize("stage", ["pretrain", "fair"])
    def test_parameters_checked_after_the_last_step(self, monkeypatch, stage):
        n_train = splits()[0].n
        steps_per_pass = -(-n_train // BASE_CFG.batch_size)
        step = Adam.step

        def poisoning_step(self, theta, grad):
            step(self, theta, grad)
            if self.t == steps_per_pass:
                theta[0] = np.inf

        monkeypatch.setattr(Adam, "step", poisoning_step)
        prefix = "pretrain " if stage == "pretrain" else ""
        with pytest.raises(TrainingDivergedError,
                           match=f"^non-finite parameters at {prefix}epoch 0$"):
            self._run(stage, "lr", BASE_CFG)


class TestVariants:
    def test_fixed_lambda_stays_uniform(self):
        tr, ev, te = splits(seed=2)
        res = train_variant("fixed_lambda", tr, ev, te, RELATED, "lr", BASE_CFG)
        assert {r.lam for r in res.trace.records} == {(0.5, 0.5)}

    def test_remove_related_shrinks_input_dim(self):
        tr, ev, te = splits()
        full = train_variant("vanilla", tr, ev, te, RELATED, "lr", BASE_CFG)
        removed = train_variant("remove_related", tr, ev, te, RELATED, "lr", BASE_CFG)
        n_related_cols = sum(
            len(training.encode(tr)[0].column_map[n]) for n in RELATED
        )
        assert (
            removed.spec.input_dim == full.spec.input_dim - n_related_cols
        )

    def test_constrain_s_needs_explicit_opt_in(self):
        tr, ev, te = splits()
        with pytest.raises(ValueError, match="allow_sensitive_in_training"):
            train_variant("constrain_s", tr, ev, te, RELATED, "lr", BASE_CFG)

    def test_constrain_s_improves_fairness(self):
        (mv, _), (mc, _) = run_seeds(
            RAW,
            RELATED,
            [("vanilla", BASE_CFG), ("constrain_s", BASE_CFG)],
            "lr",
            [0],
            allow_sensitive_in_training=True,
        )
        assert mc.delta_dp < mv.delta_dp

    def test_random_related_picks_k_inputs(self):
        tr, ev, te = splits()
        res = train_variant("random_related", tr, ev, te, RELATED, "lr", BASE_CFG)
        inputs = {f.name for f in RAW.schema if f.role == "input"}
        assert len(res.related.features) == len(RELATED)
        assert set(res.related.features) <= inputs

    def test_noisy_replaces_exactly_one(self):
        tr, ev, te = splits()
        res = train_variant("noisy", tr, ev, te, RELATED, "lr", BASE_CFG)
        assert len(res.related.features) == len(RELATED)
        overlap = set(res.related.features) & set(RELATED)
        assert len(overlap) == len(RELATED) - 1

    def test_noisy_needs_a_non_related_input(self):
        tr, ev, te = splits()
        inputs = [f.name for f in RAW.schema if f.role == "input"]
        with pytest.raises(ValueError, match="^noisy variant needs at least one non-related"):
            train_variant("noisy", tr, ev, te, inputs, "lr", BASE_CFG)

    def test_top1_needs_the_sensitive_column(self, monkeypatch):
        monkeypatch.setattr(training, "encode", None)  # refused before any encoding
        with pytest.raises(ValueError, match="^top1 selects by evaluation fairness"):
            train_variant("top1", *map(without_group, splits()), RELATED, "lr", BASE_CFG)

    def test_constrain_s_needs_the_sensitive_column(self):
        # opted in, but the splits carry no group column to regularize
        with pytest.raises(ValueError, match="^constrain_s requires the sensitive attribute$"):
            train_variant("constrain_s", *map(without_group, splits()), RELATED, "lr",
                          BASE_CFG, allow_sensitive_in_training=True)

    def test_constrain_all_regularizes_every_input(self):
        tr, ev, te = splits()
        res = train_variant("constrain_all", tr, ev, te, RELATED, "lr", BASE_CFG)
        inputs = [f.name for f in RAW.schema if f.role == "input"]
        assert sorted(res.related.features) == sorted(inputs)

    def test_top1_selects_single_feature(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=6, pretrain_epochs=2)
        tr, ev, te = splits()
        res = train_variant("top1", tr, ev, te, RELATED, "lr", cfg)
        assert res.variant == "top1"
        assert len(res.related.features) == 1
        assert res.related.features[0] in RELATED

    def test_unknown_variant(self):
        tr, ev, te = splits()
        with pytest.raises(ValueError, match="unknown variant"):
            train_variant("magic", tr, ev, te, RELATED, "lr", BASE_CFG)

    def test_mlp_backbone_runs(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=5, pretrain_epochs=2)
        ((m, (res,)),) = run_seeds(
            RAW, RELATED, [("fairrf", cfg)], "mlp", [0], hidden_dims=(16, 8)
        )
        assert res.spec.hidden_dims == (16, 8)
        assert 0.5 < m.accuracy <= 1.0


class TestRunSeed:
    CFG = dataclasses.replace(BASE_CFG, max_epochs=4, pretrain_epochs=2)
    CELLS = [
        ("fairrf", CFG),
        ("constrain_s", CFG),  # fails its check: no opt-in
        ("remove_related", CFG),
        ("vanilla", CFG),
        ("fairrf", dataclasses.replace(CFG, eta=0.1, beta=0.8)),
        ("fairrf", dataclasses.replace(CFG, beta=1e-12)),  # fails in the fair loop
    ]

    def test_each_cell_equals_its_one_cell_run(self):
        (outcomes,) = run_single(RAW, RELATED, self.CELLS, "lr", [1])
        for (variant, cfg), result in zip(self.CELLS, outcomes, strict=True):
            if isinstance(result, Exception):
                with pytest.raises(type(result)) as alone:
                    run_seeds(RAW, RELATED, [(variant, cfg)], "lr", [1])
                assert str(alone.value) == str(result)
                continue
            ((alone,),) = run_single(RAW, RELATED, [(variant, cfg)], "lr", [1])
            assert result.trace.to_jsonl() == alone.trace.to_jsonl()
            assert result.params.flat.tobytes() == alone.params.flat.tobytes()
        assert sum(isinstance(r, Exception) for r in outcomes) == 2

    def test_run_single_returns_each_outcome_in_cell_order(self):
        (outcomes,) = run_single(RAW, RELATED, self.CELLS, "lr", [1])
        assert [isinstance(o, Exception) for o in outcomes] == [
            False, True, False, False, False, True]
        assert [o.variant for o in outcomes if not isinstance(o, Exception)] == [
            "fairrf", "remove_related", "vanilla", "fairrf"]
        assert "allow_sensitive_in_training" in str(outcomes[1])

    def test_holds_one_encoding_at_a_time(self, monkeypatch):
        # every seed's encoding of a group is held while the group trains, and
        # none of an earlier group: the last cell of the first group fails
        # after encoding, and its exception must not keep an encoding alive
        encode = training.encode
        earlier = []  # a weak reference to each encoded training split
        alive = []  # how many of them were alive at each encode

        def checked_encode(train, others):
            alive.append(sum(ref() is not None for ref in earlier))
            encoded = encode(train, others)
            earlier.append(weakref.ref(encoded[0]))
            return encoded

        monkeypatch.setattr(training, "encode", checked_encode)
        per_seed = run_single(RAW, RELATED, self.CELLS, "lr", [1, 2])
        assert alive == [0, 1, 0, 1]
        assert [sum(isinstance(o, Exception) for o in outcomes) for outcomes in per_seed] == [2, 2]

    def test_results_hold_no_encoding(self, monkeypatch):
        # once the cells are trained, every encoded split and its matrix is
        # garbage while each result and each failure is still held
        encode = training.encode
        made = []  # a weak reference to each encoded split and its matrix

        def recording_encode(train, others):
            encoded = encode(train, others)
            made.extend(weakref.ref(x) for enc in encoded for x in (enc, enc.X))
            return encoded

        monkeypatch.setattr(training, "encode", recording_encode)
        cells = [*self.CELLS, ("top1", self.CFG)]
        per_seed = run_single(RAW, RELATED, cells, "lr", [1, 2])
        gc.collect()
        assert len(made) == 2 * 2 * 3 * 2  # two seeds' two encodings of three splits
        assert [ref() for ref in made] == [None] * len(made)
        assert [sum(isinstance(r, training.TrainResult) for r in outcomes)
                for outcomes in per_seed] == [5, 5]

    def test_each_seed_of_a_job_equals_the_seed_alone(self, monkeypatch):
        # one job of three seeds: every cell's stack holds all three, and each
        # seed's outcomes are those of a job of that seed alone, byte for byte
        stacks = []  # the seeds of each pretrain
        pretrain = training.pretrain

        def recorded(seeds, cfg):
            stacks.append([data.spec.seed for data in seeds])
            return pretrain(seeds, cfg)

        monkeypatch.setattr(training, "pretrain", recorded)
        together = run_single(RAW, RELATED, self.CELLS, "lr", [1, 2, 3])
        assert stacks == [[1, 2, 3], [1, 2, 3]]  # the full encoding's cells, remove_related's
        for seed, outcomes in zip([1, 2, 3], together, strict=True):
            (alone,) = run_single(RAW, RELATED, self.CELLS, "lr", [seed])
            for got, own in zip(outcomes, alone, strict=True):
                if isinstance(own, Exception):
                    assert type(got) is type(own) and str(got) == str(own)
                    continue
                assert got.spec == own.spec and got.spec.seed == seed
                assert got.trace.to_jsonl() == own.trace.to_jsonl()
                assert got.params.flat.tobytes() == own.params.flat.tobytes()
                assert got.test_yhat.tobytes() == own.test_yhat.tobytes()

    def test_a_seed_that_cannot_be_split_fails_its_cells_alone(self, monkeypatch):
        split = training.split

        def failing_on_seed_2(raw, seed):
            if seed == 2:
                raise RuntimeError("seed 2 cannot be split")
            return split(raw, seed=seed)

        monkeypatch.setattr(training, "split", failing_on_seed_2)
        cells = [("vanilla", self.CFG), ("fairrf", self.CFG)]
        first, second = run_single(RAW, RELATED, cells, "lr", [1, 2])
        assert [r.variant for r in first] == ["vanilla", "fairrf"]
        assert [str(e) for e in second] == ["seed 2 cannot be split"] * 2


class TestRunSeeds:
    def test_aggregates_over_seeds(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=6, pretrain_epochs=2)
        ((report, results),) = run_seeds(RAW, RELATED, [("fairrf", cfg)], "lr", seeds=[0, 1])
        assert len(results) == 2
        assert len(report.per_seed) == 2
        assert report.accuracy_std is not None

    def test_seed_controls_split_and_init(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=4, pretrain_epochs=1)
        ((m0, _),) = run_seeds(RAW, RELATED, [("fairrf", cfg)], "lr", [0])
        ((m1, _),) = run_seeds(RAW, RELATED, [("fairrf", cfg)], "lr", [1])
        assert m0 != m1

    CFG = dataclasses.replace(BASE_CFG, max_epochs=4, pretrain_epochs=2)

    def test_variants_share_each_seeds_pretraining(self, monkeypatch):
        cells = [("vanilla", self.CFG), ("fairrf", self.CFG)]
        pretrain = training.pretrain
        pretrained = []  # the seeds of each pretrain call

        def recorded(seeds, cfg):
            pretrained.append([data.spec.seed for data in seeds])
            return pretrain(seeds, cfg)

        monkeypatch.setattr(training, "pretrain", recorded)
        both = run_seeds(RAW, RELATED, cells, "lr", [0, 1])
        assert pretrained == [[0, 1]]  # one stack: both cells, both seeds
        for cell, (report, results) in zip(cells, both):
            ((alone, alone_results),) = run_seeds(RAW, RELATED, [cell], "lr", [0, 1])
            assert report == alone
            assert [r.variant for r in results] == [cell[0]] * 2
            assert ([r.trace.to_jsonl() for r in results]
                    == [r.trace.to_jsonl() for r in alone_results])

    def test_raises_the_first_failure_in_cell_order(self, monkeypatch):
        # one run_single call trains every seed; constrain_s and magic fail on
        # each, and the first of them in cell order is raised
        cells = [("vanilla", self.CFG), ("constrain_s", self.CFG), ("magic", self.CFG)]
        original = training.run_single
        started = []  # the seeds of each run_single call

        def recorded(raw, related_names, cells, model_kind, seeds, **kwargs):
            started.append(list(seeds))
            return original(raw, related_names, cells, model_kind, seeds, **kwargs)

        monkeypatch.setattr(training, "run_single", recorded)
        with pytest.raises(ValueError, match="allow_sensitive_in_training=True"):
            run_seeds(RAW, RELATED, cells, "lr", [0, 1, 2])
        assert started == [[0, 1, 2]]

    def test_a_test_split_without_groups_cannot_be_measured(self):
        # the cell trains, but its report needs the sensitive column
        raw = without_group(RAW)
        ((result,),) = run_single(raw, RELATED, [("fairrf", self.CFG)], "lr", [0])
        assert result.test_s is None
        with pytest.raises(ValueError, match="^test split carries no sensitive attribute$"):
            result.test_metrics()
        with pytest.raises(ValueError, match="^test split carries no sensitive attribute$"):
            run_seeds(raw, RELATED, [("fairrf", self.CFG)], "lr", [0, 1])


class TestTrace:
    def test_jsonl_round_trip_with_fixed_fields(self):
        import json

        ((res,),) = run_single(RAW, RELATED, [("fairrf", BASE_CFG)], "lr", [0])
        lines = res.trace.to_jsonl().strip().splitlines()
        assert len(lines) == len(res.trace.records)
        assert TRACE_FIELDS == (
            "epoch", "cls_loss", "penalty_total", "per_feature", "lam",
            "eval_accuracy", "eval_delta_eo", "eval_delta_dp", "eval_objective",
        )
        for line in lines:
            row = json.loads(line)
            assert set(row) == set(TRACE_FIELDS)

    def test_write(self, tmp_path):
        ((res,),) = run_single(RAW, RELATED, [("fairrf", BASE_CFG)], "lr", [0])
        path = tmp_path / "trace.jsonl"
        res.trace.write(path)
        assert path.read_text() == res.trace.to_jsonl()

    RECORD = EpochRecord(
        epoch=0,
        cls_loss=1.0,
        penalty_total=0.0,
        per_feature=(0.0, 0.0),
        lam=(1.0, 0.0),
        eval_accuracy=0.5,
        eval_delta_eo=None,
        eval_delta_dp=None,
        eval_objective=1.0,
    )

    def test_simplex_guard(self):
        trace = TrainTrace()
        with pytest.raises(TrainingDivergedError):
            trace.append(dataclasses.replace(self.RECORD, lam=(0.9, 0.3)))

    def test_simplex_guard_uses_the_solver_tolerance(self):
        # -1e-11 is past weights.on_simplex's -1e-12, though the sum is 1
        trace = TrainTrace()
        trace.append(self.RECORD)
        with pytest.raises(TrainingDivergedError, match="left the simplex"):
            trace.append(dataclasses.replace(self.RECORD, lam=(1.0 + 1e-11, -1e-11)))
        assert len(trace.records) == 1


class TestTop1:
    """``top1`` keeps the per-feature run whose trace recorded the smallest
    evaluation ``delta_dp`` at its selected epoch, and ``trace.selected`` is
    the epoch that model selection chose."""

    CFG = dataclasses.replace(BASE_CFG, pretrain_epochs=2, max_epochs=6)
    KINDS = [("lr", None), ("svm", None), ("mlp", (16, 8))]

    @pytest.mark.parametrize("kind, hidden", KINDS, ids=[k for k, _ in KINDS])
    def test_keeps_the_run_a_fresh_eval_forward_picks(self, monkeypatch, kind, hidden):
        # each run's chosen model forwarded on the eval split again, and the
        # first of the smallest delta_dp taken, as the pick was once made
        runs = []  # (SeedData, (params, trace)) of every run trained
        train_stack = training.train_stack

        def recording(rows):
            outcomes = train_stack(rows)
            runs.extend((data, outcome) for (data, _), outcome in zip(rows, outcomes))
            return outcomes

        monkeypatch.setattr(training, "train_stack", recording)
        seeds = [0, 1, 2]
        per_seed = run_single(RAW, RELATED, [("top1", self.CFG)], kind, seeds,
                              hidden_dims=hidden)
        for seed, (result,) in zip(seeds, per_seed, strict=True):
            _, enc_eval, _ = training.encode_splits("top1", splits(seed), RELATED)
            mine = [outcome for data, outcome in runs if data.spec.seed == seed]
            assert len(mine) == len(RELATED)
            dps = [delta_dp(forward(params, result.spec, enc_eval.X), enc_eval.s)
                   for params, _ in mine]
            assert [trace.records[trace.selected].eval_delta_dp for _, trace in mine] == dps
            params, trace = mine[dps.index(min(dps))]
            assert result.params.flat.tobytes() == params.flat.tobytes()
            assert result.trace is trace

    @pytest.mark.parametrize("kind, hidden", KINDS, ids=[k for k, _ in KINDS])
    def test_selected_is_the_most_accurate_epoch_within_the_penalty_slack(self, monkeypatch,
                                                                          kind, hidden):
        step, eval_yhats = training._Member.step, []

        def recording(member, fits, params, row, epoch):
            eval_yhats.append(fits[1][0].copy())
            return step(member, fits, params, row, epoch)

        monkeypatch.setattr(training._Member, "step", recording)
        raw_splits = splits()
        result = train_variant("fairrf", *raw_splits, RELATED, kind, self.CFG,
                               hidden_dims=hidden)
        _, enc_eval, _ = training.encode_splits("fairrf", raw_splits, RELATED)
        records = result.trace.records
        assert len(eval_yhats) == len(records)
        penalties = [related_penalty(enc_eval.X, result.related, record.lam, yhat)[0]
                     for record, yhat in zip(records, eval_yhats)]
        allowed = penalties[-1] * SELECTION_PENALTY_SLACK + 1e-12
        qualified = [epoch for epoch, penalty in enumerate(penalties) if penalty <= allowed]
        best = max(qualified, key=lambda epoch: records[epoch].eval_accuracy)
        assert result.trace.selected == best
        # the model kept is the one that epoch measured
        yhat = forward(result.params, result.spec, enc_eval.X)
        assert yhat.tobytes() == eval_yhats[best].tobytes()

    def test_an_eval_split_of_one_group_fails_the_cell(self):
        train_raw, eval_raw, test_raw = splits()
        keep = eval_raw.columns["group"] == eval_raw.columns["group"][0]
        one_group = Dataset(columns={name: col[keep] for name, col in eval_raw.columns.items()},
                            schema=eval_raw.schema, vocab=eval_raw.vocab)
        with pytest.raises(MetricUndefinedError, match="two sensitive groups"):
            train_variant("top1", train_raw, one_group, test_raw, RELATED, "lr", self.CFG)
