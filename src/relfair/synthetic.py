"""Synthetic tabular data with a hidden group driving label bias.

A binary group s (kept only for evaluation) pushes the label through the
logit and leaks into two observed proxy columns.  A clean signal column
carries the legitimate part of the label, and a pure-noise column rounds out
the inputs.  Optionally a label-echo column is added: strongly tied to the
outcome but tied to the group only through it — useful for checking that
learned feature weights prefer group proxies over outcome carriers.

The generator's strengths are fixed: ``LABEL_SIGNAL`` and ``BIAS_SIGNAL``
weight the clean column and the group in the label logit, ``PROXY_NOISE`` is
the noise std on the two group proxies, and the echo column is
``ECHO_STRENGTH * (2y - 1)`` plus noise of std ``ECHO_NOISE``.
"""

import csv
import dataclasses

import numpy as np

from relfair.data import Dataset, FeatureSchema
from relfair.models import sigmoid

LABEL_SIGNAL = 1.5
BIAS_SIGNAL = 0.8
PROXY_NOISE = 0.6
ECHO_STRENGTH = 1.0
ECHO_NOISE = 0.5


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    n: int = 4000
    label_echo: bool = False  # add the outcome-echo column
    seed: int = 0

    def __post_init__(self):
        if self.n < 10:
            raise ValueError("need at least 10 rows")


def schema(spec):
    names = ["signal", "noise", "proxy_a", "proxy_b"]
    if spec.label_echo:
        names.append("echo")
    features = [FeatureSchema(n, "continuous") for n in names]
    features.append(FeatureSchema("outcome", "categorical", role="label"))
    features.append(FeatureSchema("group", "categorical", role="sensitive"))
    return tuple(features)


def related_features(spec):
    """The columns a fairness-aware run should regularize."""
    return ["proxy_a", "proxy_b"] + (["echo"] if spec.label_echo else [])


def generate(spec):
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    s = rng.integers(0, 2, size=n)
    sgn = 2.0 * s - 1.0
    signal = rng.normal(size=n)
    noise = rng.normal(size=n)
    proxy_a = sgn + rng.normal(scale=PROXY_NOISE, size=n)
    proxy_b = -0.9 * sgn + rng.normal(scale=PROXY_NOISE, size=n)
    logit = LABEL_SIGNAL * signal + BIAS_SIGNAL * sgn
    y = (rng.uniform(size=n) < sigmoid(logit)).astype(int)

    columns = {"signal": signal, "noise": noise, "proxy_a": proxy_a, "proxy_b": proxy_b}
    if spec.label_echo:
        columns["echo"] = ECHO_STRENGTH * (2.0 * y - 1.0) + rng.normal(
            scale=ECHO_NOISE, size=n
        )
    columns.update(outcome=y, group=s)
    return Dataset(columns=columns, schema=schema(spec))


def write_csv(dataset, path):
    """Dump a Dataset back to headered CSV (binary columns become 0/1).

    The file round-trips through load_csv with label/sensitive positive
    value "1".
    """
    cells = []
    for f in dataset.schema:
        values = dataset.columns[f.name].tolist()
        if f.name in dataset.vocab:
            cells.append([dataset.vocab[f.name][c] for c in values])
        else:
            cells.append([repr(v) for v in values])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataset.schema])
        writer.writerows(zip(*cells))
