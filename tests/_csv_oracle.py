"""A row-wise CSV reader: the reference for ``relfair.data.load_csv``.

``load_csv`` reads a block of records at a time and codes each column
through its distinct raw cells.  This reader keeps every record, strips each
picked cell and codes each whole column once; ``tests/test_data.py``
requires both to build the same Dataset, bytes and dtypes included, and to
raise the same message for a bad file, naming the file line on which the
bad record starts.  It does not reject a header that names a schema column
twice, and lets the csv module's own errors through.
"""

import csv

import numpy as np

from relfair.data import DEFAULT_MISSING_TOKENS, Dataset


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


def read_csv(path, schema, *, label_positive=None, sensitive_positive=None,
             missing_tokens=DEFAULT_MISSING_TOKENS):
    """The Dataset :func:`relfair.data.load_csv` should build from ``path``."""
    missing_tokens = set(missing_tokens)
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        next_line = reader.line_num + 1  # the file line the next record starts on
        for cells in reader:
            line_no, next_line = next_line, reader.line_num + 1
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
