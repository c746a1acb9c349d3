"""Runs trained in one stack end as each would alone.

``run_single`` trains the cells of a job's seeds that share an encoding
group, a model shape and the pretraining settings as one stack
(``training.pretrain``, one row per seed, then ``training.train_stack``):
one batch order per seed, one forward and backward of every batch for all
rows, one Adam step over their stacked parameters.  Each run keeps its own
lambda, trace, early stop and model selection, and leaves the stack when it
stops or fails.  These tests train several cells (or runs, or seeds) in one
stack, then each one alone, and compare every byte each leaves: its trace,
its chosen parameters and its test predictions.  A failed run fails with
the message it fails with alone, and the runs beside it do not notice.
"""

import dataclasses

import numpy as np
import pytest

from relfair import training
from relfair.data import Dataset, FeatureSchema, TrainView, encode, resolve_related, split
from relfair.models import ModelSpec, init_params
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import (
    FairRun,
    SeedData,
    TrainConfig,
    pretrain,
    run_single,
    train_stack,
)

SPEC = SyntheticSpec(n=900, label_echo=True, seed=5)
RAW = generate(SPEC)
RELATED = related_features(SPEC)
CFG = TrainConfig(learning_rate=0.1, pretrain_epochs=2, max_epochs=6, batch_size=64,
                  early_stop_patience=3)
# stops before max_epochs, on patience, for LR, the SVM and the (64, 32) MLP
EARLY = dataclasses.replace(CFG, eta=3.0, early_stop_patience=1)

# LR, the SVM, an MLP whose hidden layers fold their biases and one whose do not
MODELS = [
    pytest.param("lr", None, id="lr"),
    pytest.param("svm", None, id="svm"),
    pytest.param("mlp", (64, 32), id="mlp-64x32-folds"),
    pytest.param("mlp", (12, 6), id="mlp-12x6"),
]

CELLS = [
    ("vanilla", CFG),
    ("fairrf", CFG),
    ("fairrf", dataclasses.replace(CFG, eta=0.1, beta=1.0)),
    ("fairrf", dataclasses.replace(CFG, eta=1.0, beta=0.2)),
    ("fixed_lambda", CFG),
    ("top1", CFG),
    ("constrain_s", CFG),
    ("fairrf", dataclasses.replace(CFG, max_epochs=3)),  # leaves the stack early
    ("fairrf", EARLY),
    ("fairrf", dataclasses.replace(CFG, beta=1e-12)),  # fails in its first refresh
]


# LR and the two MLPs, for the cases across seeds
KINDS = [model for model in MODELS if model.id != "svm"]


@pytest.fixture
def stacks(monkeypatch):
    """The number of rows of each ``train_stack`` call while the test runs."""
    sizes = []
    original = training.train_stack

    def recording(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(training, "train_stack", recording)
    return sizes


@pytest.fixture
def pretrained(monkeypatch):
    """The seeds of each ``pretrain`` call while the test runs."""
    seeds = []
    original = training.pretrain

    def recording(rows, cfg):
        seeds.append([data.spec.seed for data in rows])
        return original(rows, cfg)

    monkeypatch.setattr(training, "pretrain", recording)
    return seeds


def _assert_same_cell(together, alone):
    if isinstance(alone, Exception):
        assert type(together) is type(alone)
        assert str(together) == str(alone)
        return
    assert together.related == alone.related
    assert together.trace.to_jsonl() == alone.trace.to_jsonl()
    assert together.params.flat.tobytes() == alone.params.flat.tobytes()
    assert together.test_yhat.tobytes() == alone.test_yhat.tobytes()


@pytest.mark.parametrize("kind, hidden", MODELS)
def test_each_cell_of_a_stack_ends_as_it_would_alone(stacks, kind, hidden):
    options = dict(hidden_dims=hidden, allow_sensitive_in_training=True)
    together = run_single(RAW, RELATED, CELLS, kind, [1, 2], **options)
    # one stack over both seeds: every cell, and top1 once per related feature
    assert stacks == [2 * (len(CELLS) - 1 + len(RELATED))]
    for seed, outcomes in zip([1, 2], together, strict=True):
        for cell, outcome in zip(CELLS, outcomes, strict=True):
            ((alone,),) = run_single(RAW, RELATED, [cell], kind, [seed], **options)
            _assert_same_cell(outcome, alone)
        failed = [o for o in outcomes if isinstance(o, Exception)]
        assert len(failed) == 1 and "too small" in str(failed[0])
        # the runs left the stack at different epochs, by max_epochs or by patience
        epochs = [len(o.trace.records) for o in outcomes if not isinstance(o, Exception)]
        assert len(set(epochs)) > 1 and epochs[-2] == 3


class _RaisesAt:
    """A fairness callback that raises on its ``at``-th call (epoch at - 1)."""

    def __init__(self, at):
        self.at, self.calls = at, 0

    def __call__(self, yhat):
        self.calls += 1
        if self.calls == self.at:
            raise RuntimeError(f"bookkeeping failed on call {self.calls}")
        return None, None


def _runs(related, train):
    """Runs that finish at different epochs, beside runs that fail mid-run."""
    poisoned = np.array(train.X, copy=True)
    poisoned[len(poisoned) // 2, related.columns[0]] = np.inf
    return [
        FairRun(related, CFG),
        FairRun(None, dataclasses.replace(CFG, eta=0.0)),
        FairRun(related, dataclasses.replace(CFG, eta=0.1), learn_lambda=False),
        FairRun(related, CFG, reg_train=poisoned),  # diverges in its first pass
        FairRun(related, CFG, fairness=_RaisesAt(3)),  # fails in epoch 2's bookkeeping
        FairRun(related, dataclasses.replace(CFG, beta=1e-12)),  # fails in its first refresh
        FairRun(None, CFG),  # refused: a penalty needs a related set
        FairRun(related, dataclasses.replace(CFG, max_epochs=3)),
        FairRun(related, EARLY),
    ]


@pytest.mark.parametrize("kind, hidden", MODELS)
def test_each_run_of_a_stack_ends_as_it_would_alone(kind, hidden):
    train_raw, eval_raw, test_raw = split(RAW, seed=2)
    enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
    spec = ModelSpec(kind=kind, input_dim=enc_train.n_columns, hidden_dims=hidden, seed=2)
    related = resolve_related(train_raw.schema, enc_train, RELATED)
    train, evaluation = enc_train.train_view(), enc_eval.train_view()
    start = SeedData(spec, init_params(spec), train, evaluation)
    with np.errstate(all="ignore"):  # the poisoned run's NaNs
        together = train_stack([(start, run) for run in _runs(related, train)])
        alone = [train_stack([(start, run)])[0] for run in _runs(related, train)]
    for outcome, own in zip(together, alone, strict=True):
        if isinstance(own, Exception):
            assert type(outcome) is type(own) and str(outcome) == str(own)
            continue
        (got_params, got_trace), (own_params, own_trace) = outcome, own
        assert got_trace.to_jsonl() == own_trace.to_jsonl()
        assert got_params.flat.tobytes() == own_params.flat.tobytes()
    errors = [str(o) if isinstance(o, Exception) else None for o in together]
    assert errors[3].startswith("non-finite ") and errors[3].endswith(" at epoch 0")
    assert errors[4] == "bookkeeping failed on call 3"
    assert "too small" in errors[5]
    assert errors[6] == "a related feature set is required unless eta=0"
    finished = [len(o[1].records) for o in together if not isinstance(o, Exception)]
    assert len(finished) == 5 and len(set(finished)) > 1 and finished[-2] == 3


def test_the_runs_of_a_stack_share_their_batches():
    train_raw, eval_raw, test_raw = split(RAW, seed=2)
    enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
    spec = ModelSpec(kind="lr", input_dim=enc_train.n_columns, seed=2)
    related = resolve_related(train_raw.schema, enc_train, RELATED)
    for field, value in (("learning_rate", 0.05), ("batch_size", 32)):
        runs = [FairRun(related, CFG), FairRun(related, dataclasses.replace(CFG, **{field: value}))]
        start = SeedData(spec, init_params(spec), enc_train.train_view(), enc_eval.train_view())
        with pytest.raises(ValueError, match="^the runs of a stack must share learning_rate "
                                             "and batch_size$"):
            train_stack([(start, run) for run in runs])


# ---------------------------------------------------------------------------
# across seeds


def _with_a_rare_category(raw, row):
    """``raw`` with a categorical input ``site`` whose value "rare" is in ``row`` only."""
    codes = np.zeros(raw.n, dtype=np.uint8)
    codes[row] = 1
    return Dataset(columns={**raw.columns, "site": codes},
                   schema=(*raw.schema, FeatureSchema("site", "categorical")),
                   vocab={**raw.vocab, "site": ("common", "rare")})


@pytest.mark.parametrize("kind, hidden", KINDS)
def test_a_seed_of_another_width_trains_in_its_own_stack(pretrained, kind, hidden):
    # the encoder keeps the site columns only for a seed whose training split
    # holds the one rare row, so that seed's model is wider than the others'
    raw = _with_a_rare_category(RAW, 0)
    seeds = [1, 2, 3, 4]
    train_rows = {seed: split(raw, seed=seed)[0].columns["site"].any() for seed in seeds}
    assert 0 < sum(train_rows.values()) < len(seeds)
    cells = [("vanilla", CFG), ("fairrf", CFG)]
    together = run_single(raw, RELATED, cells, kind, seeds, hidden_dims=hidden)
    widths = {seed: outcomes[0].spec.input_dim for seed, outcomes in zip(seeds, together)}
    wide = [seed for seed in seeds if train_rows[seed]]
    assert {widths[seed] for seed in wide}.isdisjoint(
        widths[seed] for seed in seeds if seed not in wide)
    assert sorted(map(sorted, pretrained)) == sorted(
        [wide, [seed for seed in seeds if seed not in wide]])
    for seed, outcomes in zip(seeds, together, strict=True):
        (alone,) = run_single(raw, RELATED, cells, kind, [seed], hidden_dims=hidden)
        for got, own in zip(outcomes, alone, strict=True):
            _assert_same_cell(got, own)


def _seed_data(spec, seed, poison=False, flip_eval=False):
    """A seed's ``SeedData`` at its init: its train split poisoned with an inf,
    or its evaluation labels flipped, so its evaluation loss rises."""
    train_raw, eval_raw, test_raw = split(RAW, seed=seed)
    enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
    spec = dataclasses.replace(spec, input_dim=enc_train.n_columns, seed=seed)
    train, evaluation = enc_train.train_view(), enc_eval.train_view()
    if poison:
        X = np.array(train.X, copy=True)
        X[len(X) // 2, 0] = np.inf
        train = TrainView(X=X, y=train.y)
    if flip_eval:
        evaluation = TrainView(X=evaluation.X, y=1.0 - evaluation.y)
    return SeedData(spec, init_params(spec), train, evaluation)


def test_a_penalized_run_that_diverges_mid_pass_across_seeds_leaves_alone():
    # train_mlp_synth's shape: the (64, 32) MLP, three seeds, one fairrf run
    # each, so one penalty group over the rows' own batches; seed 2's run
    # meets an inf in a related column at the first step of its first pass
    # and leaves the stack, and the pass's other steps run with the group
    # formed again from the other two rows
    cfg = dataclasses.replace(CFG, batch_size=128)

    def rows():
        out = []
        for seed in (1, 2, 3):
            train_raw, eval_raw, test_raw = split(RAW, seed=seed)
            enc_train, enc_eval, _ = encode(train_raw, [eval_raw, test_raw])
            related = resolve_related(train_raw.schema, enc_train, RELATED)
            X = np.array(enc_train.X, copy=True)
            if seed == 2:
                X[:, related.columns[-1]] = np.inf
            spec = ModelSpec(kind="mlp", input_dim=enc_train.n_columns, hidden_dims=(64, 32),
                             seed=seed)
            data = SeedData(spec, init_params(spec), TrainView(X=X, y=enc_train.y),
                            enc_eval.train_view())
            out.append((data, FairRun(related, cfg)))
        return out

    with np.errstate(all="ignore"):  # the poisoned run's NaNs
        together = train_stack(rows())
        alone = [train_stack([row])[0] for row in rows()]
    assert str(together[1]) == str(alone[1]) == "non-finite loss at epoch 0"
    for got, own in zip(together[::2], alone[::2]):
        (got_params, got_trace), (own_params, own_trace) = got, own
        assert len(got_trace.records) > 1
        assert got_trace.to_jsonl() == own_trace.to_jsonl()
        assert got_params.flat.tobytes() == own_params.flat.tobytes()


@pytest.mark.parametrize("kind, hidden", KINDS)
def test_a_row_that_diverges_in_pretrain_leaves_alone(kind, hidden):
    spec = ModelSpec(kind=kind, input_dim=1, hidden_dims=hidden)
    cfg = dataclasses.replace(CFG, pretrain_epochs=4)

    def rows():
        return [_seed_data(spec, 1), _seed_data(spec, 2, poison=True), _seed_data(spec, 3)]

    with np.errstate(all="ignore"):  # the poisoned row's NaNs
        together = pretrain(rows(), cfg)
        alone = [pretrain([row], cfg)[0] for row in rows()]
    assert isinstance(together[1], training.TrainingDivergedError)
    assert str(together[1]) == str(alone[1]) == "non-finite loss at pretrain epoch 0"
    for got, own in zip(together[::2], alone[::2]):
        assert got.flat.tobytes() == own.flat.tobytes()


@pytest.mark.parametrize("kind, hidden", KINDS)
def test_a_row_that_stops_early_in_pretrain_leaves_alone(kind, hidden):
    # seed 2's evaluation loss rises from its first epoch, so it stops after
    # PRETRAIN_PATIENCE more; seeds 1 and 3 go on to pretrain_epochs
    spec = ModelSpec(kind=kind, input_dim=1, hidden_dims=hidden)
    cfg = dataclasses.replace(CFG, learning_rate=0.01, pretrain_epochs=8)

    def rows():
        return [_seed_data(spec, 1), _seed_data(spec, 2, flip_eval=True), _seed_data(spec, 3)]

    together = pretrain(rows(), cfg)
    alone = [pretrain([row], cfg)[0] for row in rows()]
    for got, own in zip(together, alone, strict=True):
        assert got.flat.tobytes() == own.flat.tobytes()
    stopped = training.PRETRAIN_PATIENCE + 1
    shorter = [pretrain([row], dataclasses.replace(cfg, pretrain_epochs=stopped))[0]
               for row in rows()]
    assert together[1].flat.tobytes() == shorter[1].flat.tobytes()
    assert together[0].flat.tobytes() != shorter[0].flat.tobytes()
