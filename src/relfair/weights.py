"""Exact solver for the per-feature regularization weights.

The subproblem is

    minimize    sum_j lam_j * R_j + beta * ||lam||^2
    subject to  lam_j >= 0,  sum_j lam_j = 1

with R_j >= 0 the current correlation scores and beta > 0 the smoothing
strength. The KKT conditions give lam_j = max(0, (-v - R_j) / (2 beta)) where
the dual variable v is the unique root of

    sum_j max(0, -v - R_j) = 2 beta.

The left side is piecewise linear and strictly increasing in -v, so v is
found by sorting R descending and testing each breakpoint interval; the
leftmost interval extends to -inf (every weight active), and is tested first
since it is the common case for moderate beta.

The test suite checks this solver against two independent reference
solvers (exhaustive active-set enumeration, projected gradient descent) in
``tests/_lambda_oracle.py``; a library substitution on either side would
collapse the dual-route check, so both sides stay hand-written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_BREAKPOINT_SLACK = 1e-12


@dataclass(frozen=True)
class LambdaSolution:
    lam: np.ndarray
    v: float
    active_set: tuple[int, ...] = field(default=())

    def objective(self, scores: np.ndarray, beta: float) -> float:
        return float(scores @ self.lam + beta * self.lam @ self.lam)


def solve_lambda(scores, beta: float) -> LambdaSolution:
    """Closed-form minimizer of the simplex-constrained weight subproblem.

    Parameters
    ----------
    scores : array of K finite reals (the correlation scores R_j)
    beta : positive smoothing weight on ||lam||^2

    Ties in `scores` need no special handling: the closed form assigns tied
    entries equal weight automatically.
    """
    r = np.asarray(scores, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("scores must be a nonempty 1-D array")
    if not np.all(np.isfinite(r)):
        raise ValueError("scores must be finite")
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")

    order = np.argsort(-r, kind="stable")  # descending
    r_sorted = r[order]
    k = r.size
    # suffix_sum[l] = sum of r_sorted[l:]
    suffix = np.concatenate([np.cumsum(r_sorted[::-1])[::-1], [0.0]])
    slack = _BREAKPOINT_SLACK * max(1.0, float(np.abs(r).max()))

    v = None
    best_violation = np.inf
    best_v = None
    for l in range(k):
        cand = -(2.0 * beta + suffix[l]) / (k - l)
        hi = -r_sorted[l]  # candidate must not exceed the first active breakpoint
        lo = -np.inf if l == 0 else -r_sorted[l - 1]
        if lo - slack <= cand <= hi + slack:
            v = cand
            break
        violation = max(lo - cand, cand - hi)
        if violation < best_violation:
            best_violation = violation
            best_v = cand
    if v is None:
        # fp roundoff straddled a breakpoint; the nearest candidate is exact there
        v = best_v

    lam = np.maximum(0.0, (-v - r) / (2.0 * beta))
    active = tuple(int(i) for i in np.flatnonzero(lam > 0.0))
    return LambdaSolution(lam=lam, v=float(v), active_set=active)
