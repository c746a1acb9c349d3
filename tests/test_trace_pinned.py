"""Pinned digests of training traces and selected parameters.

``train_variant`` must keep producing these exact bytes: the trace feeds
``trace.jsonl`` and the parameters feed ``checkpoint.npz`` and every report,
so a rework of the training loop that changes a single bit of arithmetic
shows up here.  The runs cover every model kind under ``fairrf``, a
penalty-free run (``vanilla``, where ``related is None``) and ``constrain_s``,
whose penalty reads the group column instead of the model inputs.  One more
``fairrf`` run bins the two proxies into categories, so its ``X`` carries
one-hot blocks and a categorical related feature spans several columns.
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
        "f5ba96cc7a0773d2553e72dbfc7811a441771057bdfe6366d72fd4a0d1fdc02e",
        "3e465de6868192f58c5248bdb51e06ab302aac926caa23c58f3b40cf551e5666",
    ),
    ("fairrf", "svm"): (
        "24feeef65d53e5f17be4d72dfdac197b7f1bb6c7fed90dccd36c0bb66698fc34",
        "86c0d7b2af8eb8079bc0918009db5d4ebe7d0f098b11fe43716a3ac777ce8a50",
    ),
    ("fairrf", "mlp"): (
        "88ca84392cb7d21757c16a6d22f7402544805b942799e52f5c1487684a2e0fae",
        "88534c19e6f1c4b99f4ed8eefb98d7ae24677b60c5cf36ad461971e765c0dc5f",
    ),
    ("vanilla", "mlp"): (
        "7dc17b4ce9e784301cee12101ce1a6c32f1a72c170ba132ffa99245ff7e8fec4",
        "9ad74c1eac231e9e940c141599303a9929c05d8bf1cfaa563c2e1cc9e5ac1de7",
    ),
    ("constrain_s", "lr"): (
        "a816b62068e0b72a7d432a41a11d67c37abd0c1248efc8a1a8ad5bf0fa460ef8",
        "70ea8f23374ce1badd0d2074447138b51ac561074e9089ba267560fd4716e2a1",
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
    "eec8192a1a10bba9bd623ef7a0fe65aaee18c7aa59e47b9c0913dbd509ea85da",
    "4c4ecb506b4a8abe54cfcf2e76c9cd7fdeb8067ac2bcfea774906ed1d360f24f",
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
