"""Exact solver for the per-feature regularization weights.

The subproblem is

    minimize    sum_j lam_j * R_j + beta * ||lam||^2
    subject to  lam_j >= 0,  sum_j lam_j = 1

with R_j >= 0 the current correlation scores and beta > 0 the smoothing
strength. The KKT conditions give lam_j = max(0, (-v - R_j) / (2 beta)) where
the dual variable v is the unique root of

    sum_j max(0, -v - R_j) = 2 beta.

The left side is piecewise linear and strictly increasing in -v.  With the
scores sorted ascending and S_m the sum of the m smallest, the support is
the largest m whose m-th smallest score is <= tau_m = (2 beta + S_m) / m,
and v = -tau_m.  m = 1 always qualifies, so there is no search and nothing
to fall back to: this is the rule of the sort-based projection onto the
simplex (Duchi et al., ICML 2008).

The test suite checks this solver against two independent reference
solvers (exhaustive active-set enumeration, projected gradient descent) in
``tests/_lambda_oracle.py``; a library substitution on either side would
collapse the dual-route check, so both sides stay hand-written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def on_simplex(lam) -> bool:
    """Whether ``lam`` lies on the probability simplex, up to rounding."""
    return not (np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-8)


@dataclass(frozen=True)
class LambdaSolution:
    lam: np.ndarray
    v: float
    active_set: tuple[int, ...] = field(default=())


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

    r_asc = np.sort(r)
    tau = (2.0 * beta + np.cumsum(r_asc)) / np.arange(1, r.size + 1)
    v = -tau[np.flatnonzero(r_asc <= tau)[-1]]

    lam = np.maximum(0.0, (-v - r) / (2.0 * beta))
    if not on_simplex(lam):
        # 2 beta below the rounding unit of the scores cancels in -v - r
        raise ValueError(
            f"beta {beta:g} is too small next to the scores (largest |score| "
            f"{np.abs(r).max():g}): the weights sum to {lam.sum():g} after "
            "rounding, not 1; use a larger beta"
        )
    active = tuple(int(i) for i in np.flatnonzero(lam > 0.0))
    return LambdaSolution(lam=lam, v=float(v), active_set=active)
