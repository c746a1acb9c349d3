"""Correlation primitives and propagation bounds.

Conventions: expectations are sample means (divide by n) and standard
deviations use the population form (divide by n), so that the unnormalized
correlation score and the Pearson coefficient differ only by the factor
``n * sigma_x * sigma_y``. Mixing divide-by-n and divide-by-(n-1) estimators
would silently break that proportionality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateVarianceError(ValueError):
    """An input vector has zero variance, so its correlation is undefined."""


@dataclass(frozen=True)
class CorrelationInterval:
    """Closed interval of reachable correlation values, clamped to [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (-1.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(
                f"invalid correlation interval [{self.lo}, {self.hi}]: "
                "need -1 <= lo <= hi <= 1"
            )

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def _check_same_length(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")


def pearson(x, y) -> float:
    """Pearson correlation coefficient between two equal-length vectors.

    Raises DegenerateVarianceError when either input is constant; the caller
    decides the policy (e.g. constant encoded columns are dropped upstream).
    """
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    _check_same_length(xv, yv)
    cx = xv - xv.mean()
    cy = yv - yv.mean()
    sx = math.sqrt(float(cx @ cx) / xv.shape[0])
    sy = math.sqrt(float(cy @ cy) / yv.shape[0])
    # a constant's float mean can miss its value, leaving a std above zero;
    # the std test catches a variance that underflows
    if xv.min() == xv.max() or yv.min() == yv.max() or sx == 0.0 or sy == 0.0:
        raise DegenerateVarianceError("zero-variance input to pearson()")
    rho = float(cx @ cy) / (xv.shape[0] * sx * sy)
    # guard against fp overshoot beyond +-1
    return min(1.0, max(-1.0, rho))


def propagate_bound(rho_xy: float, rho_yz: float) -> CorrelationInterval:
    """Reachable range of rho(X, Z) given rho(X, Y) and rho(Y, Z).

    With alpha = arccos(rho_xy) and beta = arccos(rho_yz) the correlation
    between X and Z must lie in [cos(alpha + beta), cos(alpha - beta)].
    The interval is valid but not necessarily tight.
    """
    for name, r in (("rho_xy", rho_xy), ("rho_yz", rho_yz)):
        if not -1.0 <= r <= 1.0:
            raise ValueError(f"{name}={r} outside [-1, 1]")
    alpha = math.acos(rho_xy)
    beta = math.acos(rho_yz)
    lo = math.cos(min(alpha + beta, math.pi))
    hi = math.cos(abs(alpha - beta))
    return CorrelationInterval(
        lo=min(1.0, max(-1.0, lo)), hi=min(1.0, max(-1.0, hi))
    )


def fairness_bound(alphas, delta: float) -> CorrelationInterval:
    """Range of rho(S, yhat) when every proxy feature j satisfies
    rho(f_j, S) >= cos(alphas[j]) and training drives rho(f_j, yhat) into
    [cos(pi/2 + delta), cos(pi/2 - delta)].

    Intersecting the per-feature ranges leaves the one for the smallest
    angle: [cos(pi/2 + delta + a_min), cos(pi/2 - delta - a_min)].
    """
    angles = np.asarray(alphas, dtype=float)
    if angles.size == 0:
        raise ValueError("alphas must be nonempty")
    if np.any(angles < 0.0) or np.any(angles > math.pi / 2):
        raise ValueError("all alphas must lie in [0, pi/2]")
    if not 0.0 <= delta <= math.pi / 2:
        raise ValueError("delta must lie in [0, pi/2]")
    a_min = float(angles.min())
    lo = math.cos(min(math.pi / 2 + delta + a_min, math.pi))
    hi = math.cos(max(math.pi / 2 - delta - a_min, 0.0))
    return CorrelationInterval(
        lo=min(1.0, max(-1.0, lo)), hi=min(1.0, max(-1.0, hi))
    )
