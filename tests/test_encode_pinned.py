"""Pinned digests of the encoded matrices.

``encode(*split(...))`` must keep producing these exact bytes: model inputs,
labels and group codes feed every trace and report, so a data-layer rewrite
that changes a single bit here changes results downstream.  The digests
cover dtype, shape and raw bytes of X, y and s over the train, eval and test
splits, in that order.
"""

import hashlib

import numpy as np

from relfair.data import FeatureSchema, encode, load_csv, split
from relfair.synthetic import SyntheticSpec, generate

CSV_SCHEMA = (
    FeatureSchema("color", "categorical"),
    FeatureSchema("height", "continuous"),
    FeatureSchema("shape", "categorical"),
    FeatureSchema("outcome", "categorical", role="label"),
    FeatureSchema("group", "categorical", role="sensitive"),
)

# usable row 8 lands in the test split under split(seed=0): its colour is
# unseen on train, and its shape is the only one that differs from the
# shape every train row shares
UNSEEN_ROW = 8


def _csv_text():
    colors = ("red", "blue", "green")
    lines = ["color,height,shape,outcome,group"]
    for i in range(40):
        color, shape = colors[i % 3], "square"
        if i == UNSEEN_ROW:
            color, shape = "violet", "circle"
        height = (i * 37 % 11) / 4
        outcome = "yes" if (i * 7) % 5 < 2 else "no"
        group = "ab"[(i // 2) % 2]
        lines.append(f"{color},{height:.2f},{shape},{outcome},{group}")
        if i == 5:
            lines.append("?,1.00,square,yes,a")  # dropped: missing token
    return "\n".join(lines) + "\n"


def _digests(encoded):
    out = {}
    for key in ("X", "y", "s"):
        h = hashlib.sha256()
        for enc in encoded:
            arr = getattr(enc, key)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        out[key] = h.hexdigest()
    return out


def test_synthetic_encoding_is_pinned():
    ds = generate(SyntheticSpec(n=600, seed=11, label_echo=True))
    train, *others = split(ds, seed=2)
    encoded = encode(train, others)
    assert [e.n for e in encoded] == [300, 120, 180]
    assert _digests(encoded) == {
        "X": "366894aa87aa898bf65e1e082a604e111229ec47a4d63a5d39de910590ca0d60",
        "y": "5439f45a6c503e4efb35a0e0859b08dfaffb4d075621c25815462a4febdca9f0",
        "s": "e7878afcb7e728bd385e06437083f09e1f54ae84bec24ac16ad4ab0e77b5cf84",
    }


def test_categorical_csv_encoding_is_pinned(tmp_path):
    path = tmp_path / "pinned.csv"
    path.write_text(_csv_text())
    ds = load_csv(path, CSV_SCHEMA, label_positive="yes")
    assert (ds.n, ds.n_dropped) == (40, 1)
    train, *others = split(ds, seed=0)
    encoded = encode(train, others)
    enc_train, _, enc_test = encoded

    # the cases this file exists to exercise
    assert len(enc_train.column_map["shape"]) == 0  # constant on train
    color = list(enc_train.column_map["color"])
    assert len(color) == 3
    assert np.all(enc_train.X[:, color].sum(axis=1) == 1.0)
    assert np.count_nonzero(enc_test.X[:, color].sum(axis=1) == 0.0) == 1

    assert _digests(encoded) == {
        "X": "c3b9854ec10ac74eb46e50cd53e42dd309a49975befaed6e9adbfb79d5a2dd33",
        "y": "76d041b3fe6afe71c7645bb6b65302c299603828ab2b76d1f6fc95ae800f2f09",
        "s": "992f2b950588e30d7af869777612be8ad3422d388b94a0d92bbdc4034a7392a8",
    }
