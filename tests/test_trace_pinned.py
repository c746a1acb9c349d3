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
    seed=4,
)

PINNED = {
    ("fairrf", "lr"): (
        "c100cf3bbf44f5ecd1c5de26bc8579691d62d92b6ebd36b3e636ed3a585ce01c",
        "3e465de6868192f58c5248bdb51e06ab302aac926caa23c58f3b40cf551e5666",
    ),
    ("fairrf", "svm"): (
        "1325f364a5af704369f61e1fc4a3526145aaef531b9d0f8edd628f5e20a3d8a2",
        "86c0d7b2af8eb8079bc0918009db5d4ebe7d0f098b11fe43716a3ac777ce8a50",
    ),
    ("fairrf", "mlp"): (
        "07fc87bf017b658705307b810c52c0fcddf1e0ab428542b0fba6058fd1f0c659",
        "f48a95296326ea96d49f7269e73afdd9b602f8f356277e820cca313c8a70586d",
    ),
    ("vanilla", "mlp"): (
        "7b72fa2612ecd7ea2b9da7a4d9cdfd26c88bd817373caaa36922d9d5c44ce737",
        "269616d436189ab1d110efc07698f659f02b98d1170decb09d8c9b512cbe23f7",
    ),
    ("constrain_s", "lr"): (
        "643fed174ca73d05f7499759db9e70a9907d5fe0221512e4167dbdb62fb47589",
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
    train_raw, eval_raw, test_raw = split(generate(SPEC), seed=CFG.seed)
    result = train_variant(
        variant, train_raw, eval_raw, test_raw, related_features(SPEC), kind,
        CFG, hidden_dims=(16, 8) if kind == "mlp" else (),
        allow_sensitive_in_training=(variant == "constrain_s"),
    )
    trace = hashlib.sha256(result.trace.to_jsonl().encode()).hexdigest()
    assert (trace, _params_digest(result.params)) == PINNED[(variant, kind)]


PINNED_ONE_HOT = (
    "0197aeb02cb253f0cbf4e612ca32e4376b8788cb472d3a4f3cfba086fb7e4421",
    "49900499cf8a2578aa6892bfdca96afa14e857eed80cf6f2c1c8d75bab196f57",
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
    train_raw, eval_raw, test_raw = split(_one_hot_dataset(), seed=CFG.seed)
    result = train_variant(
        "fairrf", train_raw, eval_raw, test_raw, related_features(SPEC), "lr", CFG,
    )
    assert result.encoded_train.column_map["proxy_a"] == range(2, 6)
    trace = hashlib.sha256(result.trace.to_jsonl().encode()).hexdigest()
    assert (trace, _params_digest(result.params)) == PINNED_ONE_HOT
