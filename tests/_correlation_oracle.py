"""The per-column correlation score, as the objective tests define it.

``relfair.objective`` gathers all related columns into one block and scores
them in one reduction against the centered predictions;
``tests/test_objective.py`` compares it against this one-column definition,
and ``tests/test_stats.py`` pins the definition itself.
"""

import numpy as np


def correlation_score(x, yhat) -> float:
    """Absolute unnormalized covariance |sum_i (x_i - mu_x)(yhat_i - mu_yhat)|.

    Centering one factor suffices: the cross term between the centered x and
    the constant mean of yhat vanishes, so this equals |sum (x_i - mu_x) yhat_i|.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(yhat, dtype=float)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError(f"need two 1-D vectors of one length, got {xv.shape} and {yv.shape}")
    return abs(float((xv - xv.mean()) @ yv))
