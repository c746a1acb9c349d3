"""How much work the training loops do and what they may read.

Forward counts: every call into ``models._forward_cache`` is one forward
pass.  Pretraining forwards each batch once (inside ``loss_and_grad``) plus
the evaluation split once per epoch; the fair loop forwards each theta-step
batch once and each split once per epoch, and its fairness callback adds
none.  A stack of fair-loop runs does that once for all of its runs: one
forward and one Adam step per batch, not one per run.

Sensitive column: ``pretrain`` and ``train_stack`` receive ``TrainView``s (in
each ``SeedData``),
and the evaluation fairness metrics reach the trace through a callback, so
no read of ``.s`` happens inside them for any variant that does not train on
the group by design (``constrain_s``).  ``top1`` selects by the group, but
outside them.

Every variant encodes its splits once and pretrains once; ``top1`` runs only
the fair loop once per related feature.
"""

import dataclasses
import math

import numpy as np
import pytest

from relfair import models, training
from relfair.data import TrainView, encode, resolve_related, split
from relfair.models import ModelSpec, init_params
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import (
    FairRun,
    SeedData,
    TrainConfig,
    pretrain,
    train_fairrf,
    train_stack,
    train_variant,
)

SPEC = SyntheticSpec(n=800, seed=3)
RAW = generate(SPEC)
RELATED = related_features(SPEC)
CFG = TrainConfig(
    learning_rate=0.01,
    pretrain_epochs=3,  # under PRETRAIN_PATIENCE + 1, so every epoch runs
    max_epochs=4,
    batch_size=64,
)


@pytest.fixture
def counts(monkeypatch):
    """Counts forward passes and Adam steps while the test runs."""
    seen = {"forward": 0, "steps": 0}
    forward_cache, step = models._forward_cache, training.Adam.step

    def counting_forward(*args):
        seen["forward"] += 1
        return forward_cache(*args)

    def counting_step(self, *args):
        seen["steps"] += 1
        return step(self, *args)

    monkeypatch.setattr(models, "_forward_cache", counting_forward)
    monkeypatch.setattr(training.Adam, "step", counting_step)
    return seen


def _setup(kind):
    train_raw, eval_raw, test_raw = split(RAW, seed=0)
    enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
    spec = ModelSpec(
        kind=kind, input_dim=enc_train.n_columns,
        hidden_dims=(8, 4) if kind == "mlp" else (), seed=0,
    )
    related = resolve_related(train_raw.schema, enc_train, RELATED)
    return spec, enc_train.train_view(), enc_eval.train_view(), related


@pytest.mark.parametrize("kind", ["lr", "svm", "mlp"])
def test_pretrain_forwards_each_batch_and_the_eval_split_once(counts, kind):
    spec, train, evaluation, _ = _setup(kind)
    pretrain([SeedData(spec, init_params(spec), train, evaluation)], CFG)
    batches = math.ceil(train.n / CFG.batch_size)
    assert counts["steps"] == CFG.pretrain_epochs * batches
    assert counts["forward"] == CFG.pretrain_epochs * (batches + 1)


@pytest.mark.parametrize("kind", ["lr", "mlp"])
@pytest.mark.parametrize("penalized", [True, False])
@pytest.mark.parametrize("fairness", [None, "callback"])
def test_fair_loop_forwards_each_step_and_each_split_once(counts, kind, penalized, fairness):
    spec, train, evaluation, related = _setup(kind)
    cfg = CFG
    if not penalized:
        cfg = dataclasses.replace(cfg, eta=0.0)
        related = None
    seen = []  # the fairness callback reuses the epoch's eval predictions

    def callback(yhat):
        seen.append(len(yhat))
        return None, None

    _, trace = train_fairrf(spec, init_params(spec), train, evaluation, related, cfg,
                            fairness=fairness and callback)
    epochs = len(trace.records)
    assert counts["steps"] == epochs * math.ceil(train.n / cfg.batch_size)
    assert counts["forward"] == counts["steps"] + 2 * epochs
    assert seen == ([evaluation.n] * epochs if fairness else [])


@pytest.mark.parametrize("kind", ["lr", "mlp"])
def test_a_stack_forwards_and_steps_once_for_all_of_its_runs(counts, kind):
    # vanilla, fairrf, and a fairrf that stops an epoch sooner: each epoch is
    # one step per batch and one forward of each split for every run held
    spec, train, evaluation, related = _setup(kind)
    runs = [FairRun(None, dataclasses.replace(CFG, eta=0.0)), FairRun(related, CFG),
            FairRun(related, dataclasses.replace(CFG, max_epochs=CFG.max_epochs - 1))]
    start = SeedData(spec, init_params(spec), train, evaluation)
    outcomes = train_stack([(start, run) for run in runs])
    assert [len(trace.records) for _, trace in outcomes] == [4, 4, 3]
    assert counts["steps"] == 4 * math.ceil(train.n / CFG.batch_size)
    assert counts["forward"] == counts["steps"] + 2 * 4


class _NoSensitive:
    """A split whose ``.s`` raises; everything else reads through."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "s":
            raise RuntimeError("the training loop read the sensitive column")
        return getattr(self._inner, name)


def _guarded(fn):
    """``pretrain`` or ``train_stack`` on views of each ``SeedData`` that refuse ``.s``."""
    def wrapper(rows, *args):
        guarded = {}  # rows that share a SeedData keep sharing one

        def guard(data):
            assert isinstance(data.train, TrainView) and isinstance(data.evaluation, TrainView)
            if data not in guarded:
                guarded[data] = dataclasses.replace(data, train=_NoSensitive(data.train),
                                                    evaluation=_NoSensitive(data.evaluation))
            return guarded[data]

        return fn([guard(row) if isinstance(row, SeedData) else (guard(row[0]), row[1])
                   for row in rows], *args)

    return wrapper


@pytest.mark.parametrize(
    "variant", [v for v in training.VARIANTS if v != "constrain_s"]
)
def test_training_never_reads_the_sensitive_column(monkeypatch, variant):
    monkeypatch.setattr(training, "pretrain", _guarded(training.pretrain))
    monkeypatch.setattr(training, "train_stack", _guarded(training.train_stack))
    cfg = dataclasses.replace(CFG, pretrain_epochs=1, max_epochs=2)
    train_raw, eval_raw, test_raw = split(RAW, seed=1)
    result = train_variant(variant, train_raw, eval_raw, test_raw, RELATED, "lr", cfg)
    # the fairness callback still fills the trace from outside the loop
    for record in result.trace.records:
        assert record.eval_delta_dp is not None
        assert record.eval_delta_eo is not None
    assert np.all(np.isfinite(result.test_yhat))


def test_top1_encodes_once_and_pretrains_once(monkeypatch):
    seen = {"encode": 0, "pretrain": 0}

    def counting(name):
        fn = getattr(training, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in seen:
        monkeypatch.setattr(training, name, counting(name))
    assert len(RELATED) > 1
    train_raw, eval_raw, test_raw = split(RAW, seed=2)
    train_variant("top1", train_raw, eval_raw, test_raw, RELATED, "lr", CFG)
    assert seen == {"encode": 1, "pretrain": 1}


@pytest.mark.parametrize("kind", ["lr", "mlp"])
def test_top1_equals_fairrf_on_its_chosen_feature(kind):
    hidden = (8, 4) if kind == "mlp" else None
    splits = split(RAW, seed=2)
    top1 = train_variant("top1", *splits, RELATED, kind, CFG, hidden_dims=hidden)
    alone = train_variant("fairrf", *splits, list(top1.related.features), kind, CFG,
                          hidden_dims=hidden)
    assert top1.variant == "top1" and len(top1.related.features) == 1
    assert top1.trace.to_jsonl() == alone.trace.to_jsonl()
    assert top1.params.flat.tobytes() == alone.params.flat.tobytes()
