"""Tabular data handling: CSV loading, train-fitted encoding, splits.

A :class:`Dataset` holds one numpy array per schema column: categorical
inputs as integer codes into a sorted vocabulary, continuous inputs as
float64, label and sensitive columns as integer codes.  Splitting and feature
removal therefore gather or drop whole arrays.  Models consume the numeric
`EncodedDataset` built by :func:`encode`, which fits its one-hot
vocabularies and z-score statistics on the training split only.  The sensitive
attribute rides along for evaluation but is stripped from the training path:
training code receives a :class:`TrainView`, which has no ``s`` field at all.
"""

import collections.abc
import csv
import dataclasses
import gc
import importlib.resources
import os

import numpy as np
import yaml

FEATURE_KINDS = ("categorical", "continuous")
FEATURE_ROLES = ("input", "label", "sensitive")

DEFAULT_MISSING_TOKENS = ("?", "")
SPLIT_RATIOS = (5, 2, 3)  # train, eval, test


@dataclasses.dataclass(frozen=True)
class FeatureSchema:
    name: str
    kind: str
    role: str = "input"

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in FEATURE_ROLES:
            raise ValueError(f"feature {self.name!r}: unknown role {self.role!r}")


def _check_schema(schema):
    schema = tuple(schema)
    names = [f.name for f in schema]
    if len(set(names)) != len(names):
        raise ValueError("duplicate feature names in schema")
    labels = [f for f in schema if f.role == "label"]
    if len(labels) != 1:
        raise ValueError(f"schema needs exactly one label feature, got {len(labels)}")
    if sum(f.role == "sensitive" for f in schema) > 1:
        raise ValueError("schema allows at most one sensitive feature")
    return schema


@dataclasses.dataclass(frozen=True)
class Dataset:
    """One array per schema column; labels already mapped to {0,1}.

    ``columns`` maps every schema name to a 1-D array, all of one length:
    float64 for continuous inputs, integers for the rest.  A categorical
    input holds codes into ``vocab[name]``, the sorted tuple of its values;
    label and sensitive columns hold their 0/1 or group codes directly.
    """

    columns: dict
    schema: tuple
    vocab: dict = dataclasses.field(default_factory=dict)
    n_dropped: int = 0

    def __post_init__(self):
        schema = _check_schema(self.schema)
        object.__setattr__(self, "schema", schema)
        if set(self.columns) != {f.name for f in schema}:
            raise ValueError("dataset columns must match the schema's names")
        coded = {f.name for f in schema if f.role == "input" and f.kind == "categorical"}
        if set(self.vocab) != coded:
            raise ValueError("need one vocabulary per categorical input, and no other")
        columns, vocab = {}, {}
        for f in schema:
            continuous = f.role == "input" and f.kind == "continuous"
            col = np.asarray(self.columns[f.name], dtype=float if continuous else None)
            if col.ndim != 1:
                raise ValueError(f"column {f.name!r}: expected a 1-D array")
            if not continuous and not np.issubdtype(col.dtype, np.integer):
                raise ValueError(
                    f"column {f.name!r}: expected integer codes, got {col.dtype}"
                )
            if f.name in coded:
                values = tuple(self.vocab[f.name])
                if list(values) != sorted(set(values)):
                    raise ValueError(
                        f"column {f.name!r}: vocabulary must be sorted and unique"
                    )
                if len(col) and (col.min() < 0 or col.max() >= len(values)):
                    raise ValueError(f"column {f.name!r}: code outside its vocabulary")
                vocab[f.name] = values
            columns[f.name] = col
        if len({len(col) for col in columns.values()}) > 1:
            raise ValueError("dataset columns differ in length")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "vocab", vocab)

    @property
    def n(self):
        return len(self.columns[self.schema[0].name])

    @property
    def rows(self):
        """Read-only records in schema order, categorical inputs decoded.

        Built one at a time on indexing, for tools outside the library that
        inspect single records (the benchmark's tracer does); relfair itself
        works on ``columns``.
        """
        return _Rows(self)

    def input_features(self):
        return tuple(f for f in self.schema if f.role == "input")


class _Rows(collections.abc.Sequence):
    def __init__(self, dataset):
        self._dataset = dataset

    def __len__(self):
        return self._dataset.n

    def __getitem__(self, i):
        d = self._dataset
        row = []
        for name, col in d.columns.items():
            value = col[i].item()
            row.append(d.vocab[name][value] if name in d.vocab else value)
        return tuple(row)


@dataclasses.dataclass(frozen=True)
class TrainView:
    """What the training path is allowed to see: features and labels only."""

    X: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return len(self.y)


@dataclasses.dataclass(frozen=True)
class EncodedDataset:
    X: np.ndarray
    y: np.ndarray
    s: object  # np.ndarray of group codes, or None
    column_map: dict  # feature name -> range of encoded columns

    @property
    def n(self):
        return len(self.y)

    @property
    def n_columns(self):
        return self.X.shape[1]

    def train_view(self):
        return TrainView(X=self.X, y=self.y)


@dataclasses.dataclass(frozen=True)
class RelatedFeatureSet:
    features: tuple
    column_groups: tuple  # per feature, tuple of encoded column indices

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(
            self, "column_groups", tuple(tuple(g) for g in self.column_groups)
        )
        if self.k < 1:
            raise ValueError("related feature set must name at least one feature")
        if len(self.column_groups) != self.k:
            raise ValueError("features and column_groups must align")

    @property
    def k(self):
        return len(self.features)

    @property
    def lambda0(self):
        """The starting feature weights: uniform on the simplex."""
        return np.full(self.k, 1.0 / self.k)


# ---------------------------------------------------------------------------
# loading


def _first_bad(values, lines, ok):
    """(line, value) of the first cell failing ``ok``; the caller knows one does."""
    return next((line, v) for line, v in zip(lines, values) if not ok(v))


def _parses_as_float(raw):
    try:
        float(raw)
    except ValueError:
        return False
    return True


def _float_column(values, name, lines):
    try:
        col = np.fromiter(map(float, values), dtype=float, count=len(values))
    except ValueError:
        line, raw = _first_bad(values, lines, _parses_as_float)
        raise ValueError(
            f"line {line}: cannot parse {raw!r} as number for column {name!r}"
        ) from None
    finite = np.isfinite(col)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"line {lines[i]}: non-finite value {values[i]!r} in continuous "
            f"column {name!r}"
        )
    return col


def _coded_column(values):
    """(sorted distinct values, integer code of each cell)."""
    vocab = sorted(set(values))
    index = {v: i for i, v in enumerate(vocab)}
    dtype = np.min_scalar_type(max(len(vocab) - 1, 0))
    return tuple(vocab), np.fromiter(map(index.__getitem__, values), dtype, len(values))


def _indicator(vocab, codes, positive):
    """0/1 codes: 1 where the cell's value is ``positive``."""
    return np.array([v == positive for v in vocab], dtype=np.uint8)[codes]


def _check_occurs(path, name, vocab, positive):
    """Reject a declared positive value the column never holds."""
    if positive not in vocab:
        raise ValueError(
            f"{path}: column {name!r} never holds the declared positive value "
            f"{positive!r}"
        )


def _label_column(values, positive, name, lines, path):
    """1 for ``positive`` and 0 for the one other value the label may take.

    Without a declared positive value the cells must read "0" or "1".  A
    declared one must occur; the other value is the first non-positive one
    in file order, and a third value is an error.
    """
    vocab, codes = _coded_column(values)
    if positive is None:
        if not set(vocab) <= {"0", "1"}:
            line, raw = _first_bad(values, lines, {"0", "1"}.__contains__)
            raise ValueError(
                f"line {line}: column {name!r} value {raw!r} is not binary and "
                "no positive value was declared"
            )
        positive = "1"
    else:
        _check_occurs(path, name, vocab, positive)
        if len(vocab) > 2:
            other = next(v for v in values if v != positive)
            line, raw = _first_bad(values, lines, {positive, other}.__contains__)
            raise ValueError(
                f"line {line}: column {name!r} value {raw!r} is neither the "
                f"declared positive value {positive!r} nor {other!r}, the one "
                "other value a binary label may take"
            )
    return _indicator(vocab, codes, positive)


def load_csv(
    path,
    schema,
    *,
    label_positive=None,
    sensitive_positive=None,
    missing_tokens=DEFAULT_MISSING_TOKENS,
):
    """Read a headered CSV into a Dataset, dropping rows with missing values.

    Cell whitespace is stripped (several public census extracts pad values
    with a leading space).  Continuous cells must parse as finite numbers.
    The label maps to 1 for ``label_positive`` (it must occur in the column)
    and 0 for the one other value the column may hold; without
    ``label_positive`` it must read "0"/"1".
    Sensitive values are mapped to integer group codes: 0/1 against
    ``sensitive_positive`` when given (it must occur in the column),
    otherwise codes assigned by sorted distinct value.  Errors name the
    offending line and column.
    """
    schema = _check_schema(schema)
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    # The per-row lists hold strings only, so no cycle can form among them,
    # yet every few hundred new lists set off a collection that walks the
    # lists kept so far.  They die with _read_csv's frame, before the
    # collector is back.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_csv(path, schema, label_positive, sensitive_positive,
                         set(missing_tokens))
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_csv(path, schema, label_positive, sensitive_positive, missing_tokens):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for f in schema:
            if f.name not in header:
                raise ValueError(f"{path}: column {f.name!r} missing from header")
        positions = [header.index(f.name) for f in schema]

        records, lines = [], []
        n_dropped = 0
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(cells)} fields, "
                    f"expected {len(header)}"
                )
            picked = [cells[p].strip() for p in positions]
            if missing_tokens.isdisjoint(picked):
                records.append(picked)
                lines.append(line_no)
            else:
                n_dropped += 1

    if not records:
        raise ValueError(f"{path}: no usable rows after dropping missing values")

    columns, vocab = {}, {}
    for f, values in zip(schema, zip(*records)):
        if f.role == "label":
            col = _label_column(values, label_positive, f.name, lines, path)
        elif f.role == "sensitive":
            groups, col = _coded_column(values)
            if sensitive_positive is not None:
                _check_occurs(path, f.name, groups, sensitive_positive)
                col = _indicator(groups, col, sensitive_positive)
        elif f.kind == "continuous":
            col = _float_column(values, f.name, lines)
        else:
            vocab[f.name], col = _coded_column(values)
        columns[f.name] = col
    return Dataset(columns=columns, schema=schema, vocab=vocab, n_dropped=n_dropped)


# ---------------------------------------------------------------------------
# splitting


def split(dataset, seed=0):
    """Deterministic shuffled partition with sizes proportional to SPLIT_RATIOS."""
    ratios = SPLIT_RATIOS
    n = dataset.n
    if n < len(ratios):
        raise ValueError(f"cannot split {n} rows into {len(ratios)} parts")
    order = np.random.default_rng(seed).permutation(n)
    total = sum(ratios)
    bounds = [int(round(n * sum(ratios[: i + 1]) / total)) for i in range(len(ratios))]
    bounds[-1] = n
    parts = []
    start = 0
    for stop in bounds:
        idx = order[start:stop]
        parts.append(
            Dataset(
                columns={name: col[idx] for name, col in dataset.columns.items()},
                schema=dataset.schema,
                vocab=dataset.vocab,
            )
        )
        start = stop
    return tuple(parts)


# ---------------------------------------------------------------------------
# encoding


class _Encoder:
    """One-hot + z-score transform with statistics fitted on one dataset.

    A categorical feature gets one column per category seen on train, in
    sorted order, and a continuous feature one z-scored column; columns
    constant on train are then dropped.  Categories without a column encode
    as all-zero groups.  ``X`` is one row-major array, filled in place, so
    the mini-batch gathers ``X[idx]`` of training read contiguous rows.
    """

    def __init__(self, train):
        self.schema = train.schema
        self.plan = []  # (feature, {category: column of X} or (mean, std))
        self.column_map = {}
        width = 0
        for f in train.input_features():
            col = train.columns[f.name]
            if f.kind == "categorical":
                counts = np.bincount(col, minlength=len(train.vocab[f.name]))
                kept = [v for v, c in zip(train.vocab[f.name], counts) if 0 < c < train.n]
                fit = {v: width + j for j, v in enumerate(kept)}
                n_cols = len(kept)
            else:
                fit = (col.mean(), col.std())
                n_cols = int(fit[1] > 0.0)
            self.plan.append((f, fit))
            self.column_map[f.name] = range(width, width + n_cols)
            width += n_cols
        self.width = width

    def apply(self, dataset):
        # the z-scored columns come before X is allocated: the other order
        # left the heap of a continuous-only run a few MB larger
        z = {
            f.name: (dataset.columns[f.name] - fit[0]) / fit[1]
            for f, fit in self.plan
            if f.kind == "continuous" and self.column_map[f.name]
        }
        X = np.zeros((dataset.n, self.width))
        for f, fit in self.plan:
            if f.name in z:
                X[:, self.column_map[f.name].start] = z[f.name]
            elif f.kind == "categorical":
                targets = [fit.get(v, -1) for v in dataset.vocab[f.name]]
                target = np.array(targets, dtype=np.intp)[dataset.columns[f.name]]
                hit = np.flatnonzero(target >= 0)
                X[hit, target[hit]] = 1.0
        X.flags.writeable = False  # encoded splits are read, never written

        label = next(f.name for f in self.schema if f.role == "label")
        sensitive = next((f.name for f in self.schema if f.role == "sensitive"), None)
        return EncodedDataset(
            X=X,
            y=dataset.columns[label].astype(float),
            s=None if sensitive is None else dataset.columns[sensitive].astype(int),
            column_map=dict(self.column_map),
        )


def encode(train, others=()):
    """Encode train plus any sibling splits with train-fitted statistics.

    Returns one EncodedDataset per input, train first.  Columns constant on
    the training split are dropped from every split.
    """
    for d in others:
        if d.schema != train.schema:
            raise ValueError("all datasets passed to encode must share a schema")
    enc = _Encoder(train)
    return [enc.apply(d) for d in (train, *others)]


# ---------------------------------------------------------------------------
# related features


def resolve_related(schema, encoded, names):
    """Bind related-feature names to their encoded column groups."""
    schema = _check_schema(schema)
    if not names:
        raise ValueError("related feature list is empty")
    check_related_names(names, schema, "related features")
    groups = []
    for name in names:
        cols = tuple(encoded.column_map[name])
        if not cols:
            raise ValueError(
                f"related feature {name!r} has no encoded columns "
                "(constant on the training split)"
            )
        groups.append(cols)
    return RelatedFeatureSet(features=tuple(names), column_groups=tuple(groups))


def drop_features(dataset, names):
    """Remove input features by name (the remove-related baseline)."""
    names = set(names)
    missing = names - {f.name for f in dataset.schema}
    if missing:
        raise ValueError(f"cannot drop unknown feature(s): {sorted(missing)}")
    if any(f.name in names and f.role != "input" for f in dataset.schema):
        raise ValueError("only input features can be dropped")
    return Dataset(
        columns={k: v for k, v in dataset.columns.items() if k not in names},
        schema=tuple(f for f in dataset.schema if f.name not in names),
        vocab={k: v for k, v in dataset.vocab.items() if k not in names},
        n_dropped=dataset.n_dropped,
    )


# ---------------------------------------------------------------------------
# dataset config files


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    name: str
    csv: str
    schema: tuple
    label_positive: object
    sensitive_positive: object
    related: tuple
    missing_tokens: tuple

    def __post_init__(self):
        object.__setattr__(self, "schema", _check_schema(self.schema))


def check_block(block, where, allowed, required):
    """Return ``block`` if it is a mapping of ``allowed`` keys with every ``required`` one."""
    if not isinstance(block, dict):
        raise ValueError(f"{where}: expected a mapping, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}")
    for key in required:
        if key not in block:
            raise ValueError(f"{where}: missing required key {key!r}")
    return block


def check_list(values, key, where, kind, noun):
    """The entries of the list ``values`` as a tuple, each a ``kind`` (not a bool)."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{where}: {key} must be a list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ValueError(f"{where}: {key} entries must be {noun}, got {v!r}")
    return tuple(values)


def check_related_names(related, schema, where):
    """Return ``related`` if its names are distinct input columns of ``schema``."""
    roles = {f.name: f.role for f in schema}
    for i, name in enumerate(related):
        if name not in roles:
            raise ValueError(f"{where}: related feature {name!r} is not in the schema")
        if roles[name] != "input":
            raise ValueError(
                f"{where}: related feature {name!r} has role {roles[name]!r}; only "
                "input features may be regularized"
            )
        if name in related[:i]:
            raise ValueError(f"{where}: related feature {name!r} is named twice")
    return related


def parse_dataset_config(doc, where="dataset config"):
    required = ("name", "csv", "columns", "label", "related")
    check_block(doc, where, (*required, "sensitive", "missing"), required)

    schema = []
    for i, col in enumerate(check_list(doc["columns"], "columns", where, dict, "mappings")):
        check_block(col, f"{where}: columns[{i}]", ("name", "kind"), ("name", "kind"))
        schema.append(FeatureSchema(name=col["name"], kind=col["kind"], role="input"))

    label = check_block(doc["label"], f"{where}: label", ("name", "positive"), ("name",))
    schema.append(FeatureSchema(name=label["name"], kind="categorical", role="label"))
    label_positive = label.get("positive")
    if label_positive is not None:
        label_positive = str(label_positive)

    sensitive_positive = None
    if doc.get("sensitive") is not None:
        sens = check_block(doc["sensitive"], f"{where}: sensitive", ("name", "positive"), ("name",))
        schema.append(
            FeatureSchema(name=sens["name"], kind="categorical", role="sensitive")
        )
        if sens.get("positive") is not None:
            sensitive_positive = str(sens["positive"])

    related = check_list(doc["related"], "related", where, str, "strings")
    check_related_names(related, schema, where)
    missing = check_list(doc.get("missing", DEFAULT_MISSING_TOKENS), "missing", where, str, "strings")
    return DatasetConfig(
        name=str(doc["name"]),
        csv=str(doc["csv"]),
        schema=tuple(schema),
        label_positive=label_positive,
        sensitive_positive=sensitive_positive,
        related=related,
        missing_tokens=missing,
    )


def load_dataset_config(path):
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return parse_dataset_config(doc, where=str(path))


def builtin_config(name):
    """Load one of the dataset configs shipped inside the package."""
    resource = importlib.resources.files("relfair") / "configs" / f"{name}.yaml"
    try:
        text = resource.read_text()
    except FileNotFoundError:
        raise ValueError(f"no builtin dataset config named {name!r}") from None
    return parse_dataset_config(yaml.safe_load(text), where=f"builtin config {name!r}")


def load_from_config(cfg, data_dir="."):
    """Load the CSV a DatasetConfig points at (relative paths join data_dir)."""
    path = cfg.csv
    if not os.path.isabs(path):
        path = os.path.join(data_dir, path)
    return load_csv(
        path,
        cfg.schema,
        label_positive=cfg.label_positive,
        sensitive_positive=cfg.sensitive_positive,
        missing_tokens=cfg.missing_tokens,
    )
