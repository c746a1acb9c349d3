import dataclasses
import weakref

import numpy as np
import pytest

from relfair import training
from relfair.data import split
from relfair.models import ModelParams, ModelSpec, init_params
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TRACE_FIELDS,
    Adam,
    EpochRecord,
    TrainConfig,
    TrainTrace,
    TrainingDivergedError,
    pretrain,
    run_seed,
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


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "eta", "beta", "learning_rate", "pretrain_epochs", "max_epochs",
            "batch_size", "seed", "early_stop_patience",
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
            {"seed": True},
            {"eta": "0.3"},
            {"learning_rate": True},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = TrainConfig(eta=np.float32(0.5), batch_size=np.int64(32), seed=np.uint8(3))
        assert (cfg.batch_size, cfg.seed) == (32, 3)


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


class TestPretrain:
    def _setup(self, cfg):
        from relfair.models import ModelSpec

        train_raw, eval_raw, test_raw = splits()
        from relfair.data import encode

        enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
        spec = ModelSpec(kind="lr", input_dim=enc_train.n_columns, seed=cfg.seed)
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
        params = pretrain(spec, init_params(spec), view, ev, cfg)
        assert accuracy(forward(params, spec, view.X), view.y) >= 0.99

    def test_zero_epochs_is_noop(self):
        cfg = dataclasses.replace(BASE_CFG, pretrain_epochs=0)
        spec, params, view, ev = self._setup(cfg)
        out = pretrain(spec, params, view, ev, cfg)
        for a, b in zip(params.arrays(), out.arrays()):
            assert np.array_equal(a, b)
        assert out is not params  # defensive copy, caller's params untouched

    def test_deterministic(self):
        spec, params, view, ev = self._setup(BASE_CFG)
        a = pretrain(spec, params, view, ev, BASE_CFG)
        b = pretrain(spec, params, view, ev, BASE_CFG)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("field, value", [
        ("eta", 0.0), ("beta", 7.0), ("max_epochs", 1), ("early_stop_patience", 1),
    ])
    def test_reads_none_of_the_fair_loop_fields(self, field, value):
        # the cells of a seed job share one pretrain on exactly this premise
        spec, params, view, ev = self._setup(BASE_CFG)
        other = dataclasses.replace(BASE_CFG, **{field: value})
        a = pretrain(spec, params, view, ev, BASE_CFG)
        b = pretrain(spec, params, view, ev, other)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_nan_aborts_with_diagnostics(self):
        cfg = BASE_CFG
        spec, params, view, ev = self._setup(cfg)
        bad = np.array(view.X, copy=True)
        bad[0, 0] = np.inf
        from relfair.data import TrainView

        with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
            pretrain(spec, params, TrainView(X=bad, y=view.y), ev, cfg)


class TestTrainFairrf:
    def test_deterministic_trace_and_params(self):
        a_res, a_m = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=3)
        b_res, b_m = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=3)
        assert a_res.trace.to_jsonl() == b_res.trace.to_jsonl()
        assert a_m == b_m
        for x, y in zip(a_res.params.arrays(), b_res.params.arrays()):
            assert np.array_equal(x, y)

    def test_lambda_on_simplex_every_epoch(self):
        res, _ = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=0)
        for rec in res.trace.records:
            lam = np.array(rec.lam)
            assert np.all(lam >= 0)
            assert lam.sum() == pytest.approx(1.0, abs=1e-8)

    def test_lambda_refresh_never_increases_its_objective(self):
        # each refresh is the exact minimizer of sum lam*eta*R + beta*|lam|^2
        res, _ = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=1)
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
        _, mv = run_single(RAW, RELATED, "vanilla", "lr", BASE_CFG, seed=0)
        _, mf = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=0)
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
                pretrain(spec, init_params(spec), train, evaluation, cfg)
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
            len(full.encoded_train.column_map[n]) for n in RELATED
        )
        assert (
            removed.spec.input_dim == full.spec.input_dim - n_related_cols
        )

    def test_constrain_s_needs_explicit_opt_in(self):
        tr, ev, te = splits()
        with pytest.raises(ValueError, match="allow_sensitive_in_training"):
            train_variant("constrain_s", tr, ev, te, RELATED, "lr", BASE_CFG)

    def test_constrain_s_improves_fairness(self):
        _, mv = run_single(RAW, RELATED, "vanilla", "lr", BASE_CFG, seed=0)
        _, mc = run_single(
            RAW,
            RELATED,
            "constrain_s",
            "lr",
            BASE_CFG,
            seed=0,
            allow_sensitive_in_training=True,
        )
        assert mc.delta_dp < mv.delta_dp

    def test_random_related_picks_k_inputs(self):
        tr, ev, te = splits()
        res = train_variant("random_related", tr, ev, te, RELATED, "lr", BASE_CFG)
        inputs = {f.name for f in RAW.schema if f.role == "input"}
        assert len(res.regularized) == len(RELATED)
        assert set(res.regularized) <= inputs

    def test_noisy_replaces_exactly_one(self):
        tr, ev, te = splits()
        res = train_variant("noisy", tr, ev, te, RELATED, "lr", BASE_CFG)
        assert len(res.regularized) == len(RELATED)
        overlap = set(res.regularized) & set(RELATED)
        assert len(overlap) == len(RELATED) - 1

    def test_constrain_all_regularizes_every_input(self):
        tr, ev, te = splits()
        res = train_variant("constrain_all", tr, ev, te, RELATED, "lr", BASE_CFG)
        inputs = [f.name for f in RAW.schema if f.role == "input"]
        assert sorted(res.regularized) == sorted(inputs)

    def test_top1_selects_single_feature(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=6, pretrain_epochs=2)
        tr, ev, te = splits()
        res = train_variant("top1", tr, ev, te, RELATED, "lr", cfg)
        assert res.variant == "top1"
        assert len(res.regularized) == 1
        assert res.regularized[0] in RELATED

    def test_unknown_variant(self):
        tr, ev, te = splits()
        with pytest.raises(ValueError, match="unknown variant"):
            train_variant("magic", tr, ev, te, RELATED, "lr", BASE_CFG)

    def test_mlp_backbone_runs(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=5, pretrain_epochs=2)
        res, m = run_single(
            RAW, RELATED, "fairrf", "mlp", cfg, seed=0, hidden_dims=(16, 8)
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
        outcomes = list(run_seed(RAW, RELATED, self.CELLS, "lr", 1))
        # group by group: every variant but remove_related shares an encoding
        assert [index for index, _ in outcomes] == [0, 1, 3, 4, 5, 2]
        for index, result in outcomes:
            variant, cfg = self.CELLS[index]
            if isinstance(result, Exception):
                with pytest.raises(type(result)) as alone:
                    run_single(RAW, RELATED, variant, "lr", cfg, seed=1)
                assert str(alone.value) == str(result)
                continue
            alone, _ = run_single(RAW, RELATED, variant, "lr", cfg, seed=1)
            assert result.trace.to_jsonl() == alone.trace.to_jsonl()
            assert result.params.flat.tobytes() == alone.params.flat.tobytes()
        assert sum(isinstance(r, Exception) for _, r in outcomes) == 2

    def test_holds_one_encoding_at_a_time(self, monkeypatch):
        # the last cell of the first group fails after encoding: its exception
        # must not keep that encoding alive either
        encode = training.encode
        earlier = []  # a weak reference to each encoded training split
        alive = []  # how many of them were alive at each encode

        def checked_encode(train, others):
            alive.append(sum(ref() is not None for ref in earlier))
            encoded = encode(train, others)
            earlier.append(weakref.ref(encoded[0]))
            return encoded

        monkeypatch.setattr(training, "encode", checked_encode)
        outcomes = [
            result if isinstance(result, Exception) else None
            for _, result in run_seed(RAW, RELATED, self.CELLS, "lr", 1)
        ]
        assert alive == [0, 0]
        assert sum(o is not None for o in outcomes) == 2


class TestRunSeeds:
    def test_aggregates_over_seeds(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=6, pretrain_epochs=2)
        report, results = run_seeds(RAW, RELATED, "fairrf", "lr", cfg, seeds=[0, 1])
        assert len(results) == 2
        assert len(report.per_seed) == 2
        assert report.accuracy_std is not None

    def test_seed_controls_split_and_init(self):
        cfg = dataclasses.replace(BASE_CFG, max_epochs=4, pretrain_epochs=1)
        _, m0 = run_single(RAW, RELATED, "fairrf", "lr", cfg, seed=0)
        _, m1 = run_single(RAW, RELATED, "fairrf", "lr", cfg, seed=1)
        assert m0 != m1


class TestTrace:
    def test_jsonl_round_trip_with_fixed_fields(self):
        import json

        res, _ = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=0)
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
        res, _ = run_single(RAW, RELATED, "fairrf", "lr", BASE_CFG, seed=0)
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
