"""A plain one-hot and z-score encoder, written row by row in Python.

The reference that ``relfair.data.encode`` is checked against byte for
byte: it fits on the training split the way the encoder's contract says
(a column per category seen on train but not on every train row, in
sorted order; a z-score per continuous feature that takes more than one
value on train) and builds each row of X as a Python list.
"""

import numpy as np


def _fit(train):
    """Per input feature: (name, kind, sorted kept categories or (mean, std))."""
    plan = []
    for f in train.schema:
        if f.role != "input":
            continue
        col = train.columns[f.name]
        if f.kind == "categorical":
            values = [train.vocab[f.name][c] for c in col.tolist()]
            kept = sorted(v for v in set(values) if values.count(v) < len(values))
            plan.append((f.name, f.kind, kept))
        else:
            mean, std = float(col.mean()), float(col.std())
            plan.append((f.name, f.kind, (mean, std) if len(set(col.tolist())) > 1 else None))
    return plan


def reference_encode(train, others=()):
    """``(X, column_map)`` of train and of each of ``others``, train first."""
    plan = _fit(train)
    column_map, width = {}, 0
    for name, kind, fit in plan:
        n_cols = len(fit) if kind == "categorical" else int(fit is not None)
        column_map[name] = range(width, width + n_cols)
        width += n_cols
    out = []
    for d in (train, *others):
        rows = []
        for i in range(d.n):
            row = []
            for name, kind, fit in plan:
                cell = d.columns[name][i]
                if kind == "categorical":
                    value = d.vocab[name][cell]
                    row += [1.0 if value == v else 0.0 for v in fit]
                elif fit is not None:
                    row.append((float(cell) - fit[0]) / fit[1])
            rows.append(row)
        out.append((np.array(rows, dtype=float).reshape(d.n, width), column_map))
    return out
