"""Accuracy and group-fairness metrics, plus aggregation across seeds.

The gap metrics follow the expectation form: delta_dp is the absolute gap in
mean predicted probability between sensitive groups, delta_eo the same gap
restricted to rows with positive labels.  Passing hard 0/1 predictions gives
the thresholded variants; ``thresholded`` is provided for that.  With more
than two groups the reported gap is the maximum over group pairs.
"""

import dataclasses

import numpy as np


class MetricUndefinedError(ValueError):
    """A group needed by the metric is empty (or has no positive labels)."""


def _as_array(v, name):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d")
    return arr


def _as_scores(yhat, metric_name):
    """``yhat`` as a 1-d float array; a NaN or inf entry is an error."""
    yhat = _as_array(yhat, "yhat")
    finite = np.isfinite(yhat)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{metric_name}: yhat[{i}] is {yhat[i]}, not a finite score")
    return yhat


def thresholded(yhat):
    """Hard 0/1 predictions from probabilities: 1 at 0.5 and above."""
    return (np.asarray(yhat, dtype=float) >= 0.5).astype(float)


def accuracy(yhat, y):
    yhat = _as_scores(yhat, "accuracy")
    y = _as_array(y, "y")
    if len(yhat) == 0:
        raise ValueError("accuracy of an empty sample is undefined")
    if len(yhat) != len(y):
        raise ValueError("yhat and y must have equal length")
    return float(np.mean(thresholded(yhat) == y))


def group_rows(s, mask, metric_name):
    """Row indices of each sensitive group among the ``mask`` rows (all rows
    when ``mask`` is None), one array per group in sorted group order.

    Raises MetricUndefinedError with fewer than two groups, or when a group
    has no ``mask`` row.  ``np.unique`` is asked for the inverse: without
    it, numpy 2 takes a hash path that imports ``numpy.ma`` on first use.
    """
    groups, codes = np.unique(np.asarray(s), return_inverse=True)
    if len(groups) < 2:
        raise MetricUndefinedError(
            f"{metric_name} needs at least two sensitive groups, got {len(groups)}"
        )
    rows = []
    for k, g in enumerate(groups):
        in_group = codes == k
        rows.append(np.flatnonzero(in_group if mask is None else in_group & mask))
        if not len(rows[-1]):
            raise MetricUndefinedError(
                f"{metric_name} undefined: group {g} has no qualifying rows"
            )
    return rows


def group_gap(yhat, rows):
    """Largest minus smallest mean of ``yhat`` over each group's ``rows``,
    which is the largest pairwise absolute gap."""
    means = [float(yhat[r].mean()) for r in rows]
    return max(means) - min(means)


def delta_dp(yhat, s):
    """Demographic-parity gap: |E[yhat | S=i] - E[yhat | S=j]|, max over pairs."""
    yhat = _as_scores(yhat, "delta_dp")
    if len(yhat) != len(s):
        raise ValueError("yhat and s must have equal length")
    return group_gap(yhat, group_rows(s, None, "delta_dp"))


def delta_eo(yhat, y, s):
    """Equal-opportunity gap: the delta_dp gap restricted to y=1 rows."""
    yhat = _as_scores(yhat, "delta_eo")
    y = _as_array(y, "y")
    if not (len(yhat) == len(y) == len(s)):
        raise ValueError("yhat, y and s must have equal length")
    return group_gap(yhat, group_rows(s, y == 1.0, "delta_eo"))


# ---------------------------------------------------------------------------
# aggregation across seeds


@dataclasses.dataclass(frozen=True)
class SeedResult:
    seed: int
    accuracy: float
    delta_eo: float
    delta_dp: float

    def __post_init__(self):
        for field in ("accuracy", "delta_eo", "delta_dp"):
            v = getattr(self, field)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field}={v} outside [0, 1]")


@dataclasses.dataclass(frozen=True)
class FairnessReport:
    accuracy: float
    delta_eo: float
    delta_dp: float
    per_seed: tuple
    accuracy_std: object = None  # None with a single seed
    delta_eo_std: object = None
    delta_dp_std: object = None

    def to_dict(self):
        out = {
            "accuracy": self.accuracy,
            "delta_eo": self.delta_eo,
            "delta_dp": self.delta_dp,
            "per_seed": [dataclasses.asdict(r) for r in self.per_seed],
        }
        if self.accuracy_std is not None:
            out["accuracy_std"] = self.accuracy_std
            out["delta_eo_std"] = self.delta_eo_std
            out["delta_dp_std"] = self.delta_dp_std
        return out


def aggregate(results):
    """Mean (and, with >= 2 seeds, sample std) of per-seed metrics."""
    results = tuple(results)
    if not results:
        raise ValueError("aggregate needs at least one seed result")

    def stats(field):
        vals = np.array([getattr(r, field) for r in results])
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if len(vals) >= 2 else None
        return mean, std

    acc, acc_std = stats("accuracy")
    eo, eo_std = stats("delta_eo")
    dp, dp_std = stats("delta_dp")
    return FairnessReport(
        accuracy=acc,
        delta_eo=eo,
        delta_dp=dp,
        per_seed=results,
        accuracy_std=acc_std,
        delta_eo_std=eo_std,
        delta_dp_std=dp_std,
    )


def format_comparison_table(rows):
    """Aligned plain-text table; rows maps method name -> FairnessReport."""

    def cell(mean, std):
        if std is None:
            return f"{mean:.3f}"
        return f"{mean:.3f} +/- {std:.3f}"

    table = [("Method", "ACC", "dEO", "dDP")]
    for name, rep in rows.items():
        table.append(
            (
                name,
                cell(rep.accuracy, rep.accuracy_std),
                cell(rep.delta_eo, rep.delta_eo_std),
                cell(rep.delta_dp, rep.delta_dp_std),
            )
        )
    widths = [max(len(r[c]) for r in table) for c in range(4)]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 6))
    return "\n".join(lines)
