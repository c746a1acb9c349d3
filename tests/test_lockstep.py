"""Fair-loop runs trained in one stack end as each would alone.

``train_cells`` trains the cells of a seed that share an encoding and a
pretraining as one stack (``training.train_stack``): one batch order, one
forward and backward of every batch for all of them, one Adam step over
their stacked parameters.  Each run keeps its own lambda, trace, early stop
and model selection, and leaves the stack when it stops or fails.  These
tests train several cells (or runs) in one stack, then each one alone, and
compare every byte each leaves: its trace, its chosen parameters and its
test predictions.  A failed run fails with the message it fails with alone,
and the runs beside it do not notice.
"""

import dataclasses

import numpy as np
import pytest

from relfair import training
from relfair.data import encode, resolve_related, split
from relfair.models import ModelSpec, init_params
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import FairRun, TrainConfig, train_cells, train_stack

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


@pytest.fixture
def stacks(monkeypatch):
    """The number of runs of each ``train_stack`` call while the test runs."""
    sizes = []
    original = training.train_stack

    def recording(spec, params, train, evaluation, runs):
        sizes.append(len(runs))
        return original(spec, params, train, evaluation, runs)

    monkeypatch.setattr(training, "train_stack", recording)
    return sizes


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
    splits = split(RAW, seed=1)
    options = dict(seed=1, hidden_dims=hidden, allow_sensitive_in_training=True)
    together = train_cells(CELLS, *splits, RELATED, kind, **options)
    # one stack: every cell, and top1 once per related feature
    assert stacks == [len(CELLS) - 1 + len(RELATED)]
    for cell, outcome in zip(CELLS, together, strict=True):
        (alone,) = train_cells([cell], *splits, RELATED, kind, **options)
        _assert_same_cell(outcome, alone)
    failed = [o for o in together if isinstance(o, Exception)]
    assert len(failed) == 1 and "too small" in str(failed[0])
    # the runs left the stack at different epochs, by max_epochs or by patience
    epochs = [len(o.trace.records) for o in together if not isinstance(o, Exception)]
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
    params = init_params(spec)
    with np.errstate(all="ignore"):  # the poisoned run's NaNs
        together = train_stack(spec, params, train, evaluation, _runs(related, train))
        alone = [train_stack(spec, params, train, evaluation, [run])[0]
                 for run in _runs(related, train)]
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
        with pytest.raises(ValueError, match="^the runs of a stack must share learning_rate "
                                             "and batch_size$"):
            train_stack(spec, init_params(spec), enc_train.train_view(),
                        enc_eval.train_view(), runs)
