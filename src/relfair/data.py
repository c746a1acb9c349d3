"""Tabular data handling: CSV loading, train-fitted encoding, splits.

A :class:`Dataset` holds one numpy array per schema column: categorical
inputs as integer codes into a sorted vocabulary, continuous inputs as
float64, label and sensitive columns as integer codes.  Splitting and feature
removal therefore gather or drop whole arrays.  Models consume the numeric
`EncodedDataset` built by :func:`encode`, which fits its one-hot
vocabularies and z-score statistics on the training split only, and writes
each split's ``X`` in one pass in row order, a cache-sized block of rows at
a time (see :class:`_Encoder`).  The sensitive attribute rides along for
evaluation but is stripped from the training path: training code receives a
:class:`TrainView`, which has no ``s`` field at all.

:func:`load_csv` streams the file: ``csv.reader`` tokenizes it, and
READ_BLOCK_ROWS records at a time are checked for width, split into columns
and coded, so only one block of raw cells is alive at once.  A categorical,
label or sensitive column codes each cell through a dict of the distinct raw
cells seen so far, which strips a cell and tests it for a missing token once
per distinct cell; once the file is read, the codes of the kept rows are
remapped to the sorted stripped values with one gather.  A continuous column
parses a block with ``float`` straight from the raw cells.  Each block's
rows with a missing cell are dropped before the next block is read.  A bad
cell on a kept row is remembered and raised once the whole file is read, so
errors come in the order of a row-wise read: a malformed record anywhere,
then a file with no usable rows, then each column's first bad cell in schema
order.  A bad cell on a dropped row is no error.  The reader counts records,
and an error message finds the file line its record starts on by re-reading
the file up to that record.

:func:`load_from_config` parses each CSV once: it keeps the loaded columns in
``.<csv name>.relfair.npz`` beside the CSV, under a SHA-256 key of the CSV's
bytes and of everything it passes to the parse.  A file under another key,
or one that cannot be read back into a :class:`Dataset`, is a miss: the CSV
is parsed again and the file replaced.  The key of a miss hashes the very
bytes that were parsed, so a CSV rewritten during a load is parsed afresh by
the next one.  :func:`load_csv` itself never writes a file.
"""

import collections.abc
import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib.resources
import io
import itertools
import json
import os
import tempfile
import zipfile

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
            if continuous and not np.isfinite(col).all():
                i = int(np.argmin(np.isfinite(col)))
                raise ValueError(
                    f"column {f.name!r}: non-finite value {col[i].item()} in row {i}"
                )
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
        groups = self.column_groups  # flat: each related column, and its feature
        object.__setattr__(self, "columns", np.array([c for g in groups for c in g], dtype=int))
        object.__setattr__(self, "owner", np.repeat(np.arange(self.k), [len(g) for g in groups]))

    @property
    def k(self):
        return len(self.features)

    @property
    def lambda0(self):
        """The starting feature weights: uniform on the simplex."""
        return np.full(self.k, 1.0 / self.k)


# ---------------------------------------------------------------------------
# loading


READ_BLOCK_ROWS = 4096  # records held as raw cells at once while loading
ENCODING = "utf-8-sig"  # UTF-8, with or without a byte-order mark


def _parses_as_float(raw):
    try:
        float(raw)
    except ValueError:
        return False
    return True


class _RawCodes(dict):
    """Raw cell -> code, numbered in order of first sight.

    Only a cell's first sight strips it and tests it against the missing
    tokens, so that work runs once per distinct cell.
    """

    def __init__(self, missing_tokens):
        super().__init__()
        self.missing_tokens = missing_tokens
        self.missing_codes = []  # of the cells that strip to a missing token

    def __missing__(self, cell):
        code = self[cell] = len(self)
        if cell.strip() in self.missing_tokens:
            self.missing_codes.append(code)
        return code


class _CodedColumn:
    """A categorical, label or sensitive column, read as codes of raw cells."""

    def __init__(self, missing_tokens):
        self.raw = _RawCodes(missing_tokens)
        self.parts = []  # per block, the codes of its kept rows

    def read(self, cells, drop):
        """Code one block's cells; set ``drop`` where a cell is missing."""
        self.block = np.fromiter(map(self.raw.__getitem__, cells), np.intp, len(cells))
        if self.raw.missing_codes:
            drop |= np.isin(self.block, self.raw.missing_codes)

    def keep(self, kept, records):
        narrow = np.min_scalar_type(len(self.raw))  # a byte per cell, as a rule
        self.parts.append(self.block[kept].astype(narrow))
        self.block = None

    def finish(self):
        """(stripped cell of each raw code, kept rows' codes, sorted values they hold)."""
        stripped = [cell.strip() for cell in self.raw]
        codes = np.concatenate(self.parts)
        present = np.zeros(len(stripped), dtype=bool)
        present[codes] = True
        return stripped, codes, sorted({stripped[i] for i in np.flatnonzero(present)})


class _NumberColumn:
    """A continuous input column, parsed straight from its raw cells.

    ``float`` ignores the whitespace ``str.strip`` removes, except the
    separators U+001C..U+001F; a cell padded with those, a missing cell or a
    malformed one sends its block through the per-cell pass of
    :meth:`_read_each`.  A missing token that parses as a number is looked
    for among the cells that parse to its value.  Errors wait until the
    block's dropped rows are known, since a bad cell on a dropped row is not
    one.
    """

    def __init__(self, name, missing_tokens):
        self.name = name
        self.missing_tokens = missing_tokens
        self.numeric_missing = np.array(
            [float(t) for t in missing_tokens if _parses_as_float(t)]
        )
        self.parts = []  # per block, the values of its kept rows
        # (record, stripped cell) of the first kept cell that is no number, or not finite
        self.first_unparsed = self.first_non_finite = None

    def read(self, cells, drop):
        """Parse one block's cells; set ``drop`` where a cell is missing."""
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
            unparsed = {}
        except ValueError:
            values, unparsed = self._read_each(cells, drop)
        else:
            if self.numeric_missing.size:  # isin never matches a NaN token
                maybe = ~np.isfinite(values) | np.isin(values, self.numeric_missing)
                for i in np.flatnonzero(maybe):
                    drop[i] |= cells[i].strip() in self.missing_tokens
        self.block = cells, values, unparsed

    def _read_each(self, cells, drop):
        """(values, {row: stripped cell} of the cells that are not numbers)."""
        values = np.zeros(len(cells))
        unparsed = {}
        for i, cell in enumerate(cells):
            cell = cell.strip()
            if cell in self.missing_tokens:
                drop[i] = True
                continue
            try:
                values[i] = float(cell)
            except ValueError:
                unparsed[i] = cell
        return values, unparsed

    def keep(self, kept, records):
        cells, values, unparsed = self.block
        self.block = None
        if self.first_unparsed is None:
            i = next((i for i in unparsed if kept[i]), None)
            if i is not None:
                self.first_unparsed = records[i], unparsed[i]
        values = values[kept]
        finite = np.isfinite(values)
        if self.first_non_finite is None and not finite.all():
            i = np.flatnonzero(kept)[np.argmin(finite)]
            self.first_non_finite = records[i], cells[i].strip()
        self.parts.append(values)

    def finish(self, path):
        if self.first_unparsed:
            record, raw = self.first_unparsed
            raise ValueError(
                f"line {_line_of(path, record)}: cannot parse {raw!r} as number for "
                f"column {self.name!r}"
            )
        if self.first_non_finite:
            record, raw = self.first_non_finite
            raise ValueError(
                f"line {_line_of(path, record)}: non-finite value {raw!r} in continuous "
                f"column {self.name!r}"
            )
        return np.concatenate(self.parts)


def _first_bad(stripped, codes, records, ok):
    """(record, value) of the first kept cell failing ``ok``; the caller knows one does."""
    i = int(np.argmax(np.array([not ok(s) for s in stripped])[codes]))
    return records[i], stripped[codes[i]]


def _sorted_codes(stripped, codes, values):
    """Codes into ``values``, the sorted distinct kept values, in the narrowest dtype."""
    index = {v: i for i, v in enumerate(values)}
    dtype = np.min_scalar_type(max(len(values) - 1, 0))
    # a raw cell seen only on dropped rows is in no kept row: its 0 is never read
    return np.array([index.get(s, 0) for s in stripped], dtype)[codes]


def _indicator(stripped, codes, positive):
    """0/1 codes: 1 where the cell's value is ``positive``."""
    return np.array([s == positive for s in stripped], dtype=np.uint8)[codes]


def _check_occurs(path, name, values, positive):
    """Reject a declared positive value the column never holds."""
    if positive not in values:
        raise ValueError(
            f"{path}: column {name!r} never holds the declared positive value "
            f"{positive!r}"
        )


def _label_column(column, positive, name, records, path):
    """1 for ``positive`` and 0 for the one other value the label may take.

    Without a declared positive value the cells must read "0" or "1".  A
    declared one must occur; the other value is the first non-positive one
    in file order, and a third value is an error.
    """
    stripped, codes, values = column.finish()
    if positive is None:
        if not set(values) <= {"0", "1"}:
            record, raw = _first_bad(stripped, codes, records, {"0", "1"}.__contains__)
            raise ValueError(
                f"line {_line_of(path, record)}: column {name!r} value {raw!r} is not "
                "binary and no positive value was declared"
            )
        positive = "1"
    else:
        _check_occurs(path, name, values, positive)
        if len(values) > 2:
            _, other = _first_bad(stripped, codes, records, {positive}.__contains__)
            record, raw = _first_bad(stripped, codes, records, {positive, other}.__contains__)
            raise ValueError(
                f"line {_line_of(path, record)}: column {name!r} value {raw!r} is "
                f"neither the declared positive value {positive!r} nor {other!r}, the "
                "one other value a binary label may take"
            )
    return _indicator(stripped, codes, positive)


def _line_of(path, record):
    """The file line on which ``record`` starts, the header being record 1.

    The reader numbers records, not lines: a quoted cell may hold a newline,
    and asking the csv reader for its line after each record would slow
    every block.  So an error message re-reads the file up to its record.
    """
    with open(path, newline="", encoding=ENCODING) as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, record - 1):
            pass
        return reader.line_num + 1


def _full_rows(rows, records, width, path):
    """The non-blank records of a block and their numbers; another width is an error."""
    for record, row in zip(records, rows):
        if row and len(row) != width:
            raise ValueError(
                f"{path}: line {_line_of(path, record)} has {len(row)} fields, "
                f"expected {width}"
            )
    full = [i for i, row in enumerate(rows) if row]
    return [rows[i] for i in full], records[full]


def _blocks(reader, path, width):
    """(record numbers, cells by file column) of each block of records.

    Records are numbered from the header's 1, blank ones included.  A block
    reads READ_BLOCK_ROWS records; blank ones are skipped.
    """
    first = 2
    while True:
        rows = []
        try:
            rows.extend(itertools.islice(reader, READ_BLOCK_ROWS))
        except csv.Error as e:
            # the records before the unreadable one may hold an earlier error
            _full_rows(rows, np.arange(first, first + len(rows)), width, path)
            line = _line_of(path, first + len(rows))
            raise ValueError(f"{path}: line {line}: {e}") from None
        if not rows:
            return
        records = np.arange(first, first + len(rows))
        first += len(rows)
        if set(map(len, rows)) != {width}:
            rows, records = _full_rows(rows, records, width, path)
        if rows:
            yield records, list(zip(*rows))


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
    otherwise codes assigned by sorted distinct value.  The file is read as
    UTF-8, a byte-order mark allowed.  Errors name the offending column and
    the file line on which the offending record starts.
    """
    schema = _check_schema(schema)
    _check_exists(path)
    return _parse(path, open(path, newline="", encoding=ENCODING), schema,
                  label_positive, sensitive_positive, missing_tokens)


def _check_exists(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")


def _parse(path, fh, schema, label_positive, sensitive_positive, missing_tokens):
    """load_csv's Dataset from ``fh``, the text of the file at ``path``; closes ``fh``."""
    # A block's row lists hold strings only, so no cycle can form among
    # them, yet they set off a collection every few hundred rows, which
    # walks the rows alive at the time: about 120 collections and 25 ms of
    # a 0.17 s load of the 45k-row adult-shaped CSV.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_csv(path, fh, schema, label_positive, sensitive_positive,
                         set(missing_tokens))
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e.reason}") from None
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_csv(path, fh, schema, label_positive, sensitive_positive, missing_tokens):
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        except csv.Error as e:
            raise ValueError(f"{path}: line 1: {e}") from None
        for f in schema:
            if f.name not in header:
                raise ValueError(f"{path}: column {f.name!r} missing from header")
        for f in schema:
            if header.count(f.name) > 1:
                raise ValueError(f"{path}: header names column {f.name!r} more than once")
        positions = [header.index(f.name) for f in schema]
        columns = [
            _NumberColumn(f.name, missing_tokens)
            if f.role == "input" and f.kind == "continuous"
            else _CodedColumn(missing_tokens)
            for f in schema
        ]

        kept_records, n_dropped = [], 0
        for records, cells in _blocks(reader, path, len(header)):
            drop = np.zeros(len(records), dtype=bool)
            for column, p in zip(columns, positions):
                column.read(cells[p], drop)
            del cells  # the columns now hold the block; none keeps it past keep()
            kept = ~drop
            for column in columns:
                column.keep(kept, records)
            kept_records.append(records[kept])
            n_dropped += int(drop.sum())

    if not sum(map(len, kept_records)):
        raise ValueError(f"{path}: no usable rows after dropping missing values")
    records = np.concatenate(kept_records)

    out, vocab = {}, {}
    for f, column in zip(schema, columns):
        if f.role == "label":
            col = _label_column(column, label_positive, f.name, records, path)
        elif isinstance(column, _NumberColumn):
            col = column.finish(path)
        else:
            stripped, codes, values = column.finish()
            if f.role == "sensitive" and sensitive_positive is not None:
                _check_occurs(path, f.name, values, sensitive_positive)
                col = _indicator(stripped, codes, sensitive_positive)
            else:
                col = _sorted_codes(stripped, codes, values)
                if f.role == "input":
                    vocab[f.name] = tuple(values)
        out[f.name] = col
    return Dataset(columns=out, schema=schema, vocab=vocab, n_dropped=n_dropped)


# ---------------------------------------------------------------------------
# the parse cache of load_from_config

_CACHE_VERSION = 1  # in every key: bump it when load_csv's output or the file layout changes
_CACHE_SUFFIX = ".relfair.npz"


def _cache_path(csv_path):
    head, name = os.path.split(csv_path)
    return os.path.join(head, f".{name}{_CACHE_SUFFIX}")


def _key_hash(schema, label_positive, sensitive_positive, missing_tokens):
    """A SHA-256 fed with all that the parse reads besides the CSV's bytes."""
    fields = {
        "version": _CACHE_VERSION,
        "schema": [[f.name, f.kind, f.role] for f in schema],
        "label_positive": label_positive,
        "sensitive_positive": sensitive_positive,
        "missing_tokens": sorted(set(missing_tokens)),
    }
    # a JSON object ends where its braces close, so the bytes that follow
    # cannot make two field sets hash alike
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode())


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read from it to ``digest``."""

    def __init__(self, fh, digest):
        self.fh, self.digest = fh, digest

    def readable(self):
        return True

    def readinto(self, buf):
        n = self.fh.readinto(buf)
        self.digest.update(memoryview(buf)[:n])
        return n


def _read_cache(path, key, schema):
    """The Dataset cached at ``path`` under ``key``, or None for any other file."""
    try:
        # np.load leaves a file it opened itself open when the zip is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            meta = json.loads(npz["meta"].tobytes())
            if not isinstance(meta, dict) or meta.get("key") != key:
                return None
            columns = {f.name: npz[f"col{i}"] for i, f in enumerate(schema)}
        return Dataset(columns=columns, schema=schema, vocab=meta["vocab"],
                       n_dropped=meta["n_dropped"])
    # a missing, truncated or foreign file, or arrays Dataset refuses
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        return None


def _write_cache(path, key, dataset):
    """Replace ``path`` by ``dataset`` under ``key``; an OSError skips the cache."""
    meta = json.dumps({"key": key, "vocab": dataset.vocab, "n_dropped": dataset.n_dropped})
    arrays = {f"col{i}": dataset.columns[f.name] for i, f in enumerate(dataset.schema)}
    head, name = os.path.split(path)
    tmp = None
    try:
        # named like a cache file, so that one a killed process leaves is ignored alike
        fd, tmp = tempfile.mkstemp(prefix=name[: -len(_CACHE_SUFFIX)] + ".",
                                   suffix=_CACHE_SUFFIX, dir=head)
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(meta.encode(), np.uint8), **arrays)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# splitting


def split(dataset, seed=0):
    """Deterministic shuffled partition with sizes proportional to SPLIT_RATIOS."""
    ratios = SPLIT_RATIOS
    n = dataset.n
    total = sum(ratios)
    bounds = [int(round(n * sum(ratios[: i + 1]) / total)) for i in range(len(ratios))]
    bounds[-1] = n
    sizes = tuple(np.diff([0, *bounds]).tolist())
    if 0 in sizes:
        raise ValueError(f"cannot split {n} rows into non-empty parts: sizes {sizes}")
    order = np.random.default_rng(seed).permutation(n)
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


ENCODE_BLOCK_BYTES = 1 << 20  # bytes of X one row block of encoding writes


class _Encoder:
    """One-hot + z-score transform with statistics fitted on one dataset.

    A categorical feature gets one column per category seen on train, in
    sorted order, and a continuous feature one z-scored column; columns
    constant on train are then dropped (a continuous one when its train
    minimum equals its maximum: the float std of a constant 0.1 is not 0).
    Categories without a column encode as all-zero groups.  A continuous
    feature whose mean or standard deviation on train, or whose z-score of
    any row of a split, is not finite (its values are too large, or too
    close together, to z-score) raises ``ValueError`` naming the column.

    ``X`` is one row-major array, so the mini-batch gathers ``X[idx]`` of
    training read contiguous rows.  ``apply`` fills it in one pass in row
    order, in blocks of about ENCODE_BLOCK_BYTES, which stay in cache: a
    block is zeroed, gets its continuous features' z-scores in their
    columns, and then its one-hot entries in one scatter, for which every
    kept categorical feature gives each row one column and one value (1.0,
    or 0.0 written to the group's first column for a category without one).
    A fill a feature at a time would load a cache line of every row once
    per feature.  The per-block buffers hold one value per continuous
    feature and row, and three per categorical feature and row (column,
    value and the scatter's index): at most three blocks of X in all, and
    no other copy of X is made.
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
                with np.errstate(over="ignore", invalid="ignore"):
                    fit = (col.mean(), col.std())
                if not np.isfinite(fit).all():
                    raise ValueError(
                        f"column {f.name!r}: its mean {fit[0]} or standard deviation "
                        f"{fit[1]} on the training split is not finite; its values "
                        "are too large to z-score"
                    )
                n_cols = int(col.min() < col.max())
            self.plan.append((f, fit))
            self.column_map[f.name] = range(width, width + n_cols)
            width += n_cols
        self.width = width

    def apply(self, dataset):
        continuous = []  # (name, values, column, mean, std) per kept feature
        categorical = []  # (codes, column per code, value per code or None: all 1.0)
        for f, fit in self.plan:
            start = self.column_map[f.name].start
            if f.kind == "continuous" and self.column_map[f.name]:
                continuous.append((f.name, dataset.columns[f.name], start, *fit))
            elif f.kind == "categorical" and fit:
                vocab = dataset.vocab[f.name]
                seen = np.array([v in fit for v in vocab], dtype=float)
                categorical.append((
                    dataset.columns[f.name],
                    np.array([fit.get(v, start) for v in vocab], dtype=np.intp),
                    None if seen.all() else seen,
                ))
        columns = np.array([c for _, _, c, _, _ in continuous], dtype=np.intp)
        mean = np.array([m for *_, m, _ in continuous])[:, None]
        std = np.array([sd for *_, sd in continuous])[:, None]
        n, width = dataset.n, self.width
        X = np.empty((n, width))
        rows = max(1, min(n, ENCODE_BLOCK_BYTES // (8 * max(width, 1))))
        z = np.empty((len(continuous), rows))  # the block's z-scores, a row per feature
        # per categorical feature and row of a block: the column it sets, and to what
        target = np.empty((len(categorical), rows), dtype=np.intp)
        value = np.ones((len(categorical), rows))
        offsets = np.arange(rows) * width  # each row's first cell in a block
        flat = X.reshape(-1)
        for a in range(0, n, rows):
            b = min(a + rows, n)
            r = b - a
            for j, (_, col, *_) in enumerate(continuous):
                z[j, :r] = col[a:b]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                np.divide(np.subtract(z[:, :r], mean, out=z[:, :r]), std, out=z[:, :r])
            if not np.isfinite(z[:, :r]).all():
                name = continuous[int(np.argmin(np.isfinite(z[:, :r]).all(axis=1)))][0]
                raise ValueError(
                    f"column {name!r}: a z-score is not finite; its values are too "
                    "far from the training mean for the training standard deviation"
                )
            for j, (codes, column, seen) in enumerate(categorical):
                codes = codes[a:b]  # in range, and mode="clip" lets take write into out
                np.take(column, codes, out=target[j, :r], mode="clip")
                if seen is not None:
                    np.take(seen, codes, out=value[j, :r], mode="clip")
            block = X[a:b]
            block[...] = 0.0
            block[:, columns] = z[:, :r].T
            flat[a * width : b * width][target[:, :r] + offsets[:r]] = value[:, :r]
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


def check_string(block, key, where):
    """``block[key]`` if it is a non-empty string: a null, a number or a list
    would otherwise become a path such as ``None``."""
    value = block[key]
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where}: {key} must be a non-empty string, got {value!r}")
    return value


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
        name=check_string(doc, "name", where),
        csv=check_string(doc, "csv", where),
        schema=tuple(schema),
        label_positive=label_positive,
        sensitive_positive=sensitive_positive,
        related=related,
        missing_tokens=missing,
    )


# libyaml's parser when PyYAML was built with it; both build the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_yaml(stream):
    """The YAML document in ``stream``, a string or an open text file, safely loaded."""
    return yaml.load(stream, Loader=_YAML_LOADER)


def load_yaml(path):
    """The YAML document in the file at ``path``, read as UTF-8 (``ENCODING``,
    as a CSV); a file that is not raises ``ValueError`` naming ``path``."""
    try:
        with open(path, encoding=ENCODING) as fh:
            return parse_yaml(fh)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e.reason}") from None


def load_dataset_config(path):
    return parse_dataset_config(load_yaml(path), where=str(path))


def builtin_config(name):
    """Load one of the dataset configs shipped inside the package.

    ``name`` is the stem of one of the package's ``configs/*.yaml`` files
    (``adult``, ``compas``, ``lsac``); any other value, a path included,
    raises ``ValueError``.
    """
    configs = importlib.resources.files("relfair") / "configs"
    names = sorted(p.name[:-len(".yaml")] for p in configs.iterdir() if p.name.endswith(".yaml"))
    if name not in names:
        raise ValueError(
            f"no builtin dataset config named {name!r}; the builtin ones are "
            f"{', '.join(names)}, and a dataset config file needs a .yaml or .yml suffix"
        )
    text = (configs / f"{name}.yaml").read_text(encoding=ENCODING)
    return parse_dataset_config(parse_yaml(text), where=f"builtin config {name!r}")


def load_from_config(cfg, data_dir="."):
    """Load the CSV a DatasetConfig points at (relative paths join data_dir).

    The Dataset equals ``load_csv``'s.  It comes from the cache file beside
    the CSV when that file holds the parse of the CSV's current bytes under
    ``cfg``; otherwise the CSV is parsed and the cache file replaced, unless
    the directory cannot be written.  A failed parse writes nothing.
    """
    path = cfg.csv
    if not os.path.isabs(path):
        path = os.path.join(data_dir, path)
    _check_exists(path)
    args = (cfg.schema, cfg.label_positive, cfg.sensitive_positive, cfg.missing_tokens)
    cache = _cache_path(path)
    digest = _key_hash(*args)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    dataset = _read_cache(cache, digest.hexdigest(), cfg.schema)
    if dataset is None:
        digest = _key_hash(*args)  # of the bytes parsed, which may differ from those hashed
        with open(path, "rb", buffering=0) as raw:
            text = io.TextIOWrapper(io.BufferedReader(_HashingReader(raw, digest)),
                                    encoding=ENCODING, newline="")
            dataset = _parse(path, text, *args)
        _write_cache(cache, digest.hexdigest(), dataset)
    return dataset
