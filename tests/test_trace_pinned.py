"""Pinned digests of training traces and selected parameters.

``train_variant`` must keep producing these exact bytes: the trace feeds
``trace.jsonl`` and the parameters feed ``checkpoint.npz`` and every report,
so a rework of the training loop that changes a single bit of arithmetic
shows up here.  The runs cover every model kind under ``fairrf``, a
penalty-free run (``vanilla``, where ``related is None``) and ``constrain_s``,
whose penalty reads the group column instead of the model inputs.  One more
``fairrf`` run bins the two proxies into categories, so its ``X`` carries
one-hot blocks and a categorical related feature spans several columns.
The pins also depend on numpy's ``exp`` dispatch, which the sigmoid goes
through: they were taken on a CPU where numpy 2.4 runs its AVX512F ``exp``
kernel, and another kernel may round the last bit differently.
"""

import hashlib

import numpy as np
import pytest

from relfair.data import Dataset, FeatureSchema, split
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import TrainConfig, train_variant

SPEC = SyntheticSpec(n=600, seed=5, label_echo=True)
CFG = TrainConfig(
    eta=0.3,
    beta=0.5,
    learning_rate=0.01,
    pretrain_epochs=3,
    max_epochs=6,
    batch_size=64,
    early_stop_patience=3,
)
SEED = 4  # the run's seed: its split, init, batch order and sampling

PINNED = {
    ("fairrf", "lr"): (
        "0ef8143d7b779f12a91677eae39e002f4e416b2ca9bfad8be190ad4201a68074",
        "0b0e94ebba20dc0e9aaf2ef185272fa25400ebbc6c4da0ca78f86d772d744d3c",
    ),
    ("fairrf", "svm"): (
        "62b749187f2e809a35f5ac8de966407c4c409466978223f9c60cabd707ecfc5f",
        "2d99c5f2e4aad776d11ad0e6d25ee3ad64adc8e293de48fe23cd870a4029aeb5",
    ),
    ("fairrf", "mlp"): (
        "36a7ff40c70c348e6e57e073d9d88330d45748a5fba7803e8876ae963ba422f3",
        "6c7995d1f65dca6035a1dbe19a906071fc73770a12aaef28f218d33e00f1ae17",
    ),
    ("vanilla", "mlp"): (
        "7b72fa2612ecd7ea2b9da7a4d9cdfd26c88bd817373caaa36922d9d5c44ce737",
        "269616d436189ab1d110efc07698f659f02b98d1170decb09d8c9b512cbe23f7",
    ),
    ("constrain_s", "lr"): (
        "741c5aa2736dce8f6a9d83613731b2fc3db79f22d471f62c1c44690baba10867",
        "7dfc4b38fe553903f7da6c205d2fd44f8c0ca85629e0cc21743587906e8a7b75",
    ),
}


def _params_digest(params):
    h = hashlib.sha256()
    for arr in params.arrays():
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("variant,kind", sorted(PINNED))
def test_trace_and_params_are_pinned(variant, kind):
    train_raw, eval_raw, test_raw = split(generate(SPEC), seed=SEED)
    result = train_variant(
        variant, train_raw, eval_raw, test_raw, related_features(SPEC), kind,
        CFG, seed=SEED, hidden_dims=(16, 8) if kind == "mlp" else (),
        allow_sensitive_in_training=(variant == "constrain_s"),
    )
    trace = hashlib.sha256(result.trace.to_jsonl().encode()).hexdigest()
    assert (trace, _params_digest(result.params)) == PINNED[(variant, kind)]


PINNED_ONE_HOT = (
    "cc11911ac893019610deef5f049f22fd65bb9cd82258697334ca0c26e6e859bd",
    "25fbc2a693f511857a4c2dff7ad8b3fbe09cf6cd9521468d6223fc8fcf1729b6",
)
BINS = {"proxy_a": (-1.0, 0.0, 1.0), "proxy_b": (-0.5, 0.5)}  # category edges


def _one_hot_dataset():
    base = generate(SPEC)
    columns = dict(base.columns)
    vocab = {}
    for name, edges in BINS.items():
        columns[name] = np.digitize(columns[name], edges)
        vocab[name] = tuple(f"bin{i}" for i in range(len(edges) + 1))
    schema = tuple(
        FeatureSchema(f.name, "categorical") if f.name in BINS else f
        for f in base.schema
    )
    return Dataset(columns=columns, schema=schema, vocab=vocab)


def test_one_hot_trace_and_params_are_pinned():
    train_raw, eval_raw, test_raw = split(_one_hot_dataset(), seed=SEED)
    result = train_variant(
        "fairrf", train_raw, eval_raw, test_raw, related_features(SPEC), "lr", CFG,
        seed=SEED,
    )
    assert result.related.column_groups[result.related.features.index("proxy_a")] == (2, 3, 4, 5)
    trace = hashlib.sha256(result.trace.to_jsonl().encode()).hexdigest()
    assert (trace, _params_digest(result.params)) == PINNED_ONE_HOT
