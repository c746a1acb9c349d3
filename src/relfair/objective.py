"""The fairness-regularized training objective.

Total loss is ``L_cls + eta * sum_j lambda_j R_j + beta * ||lambda||^2`` where
R_j is the correlation score of related feature j against the predictions.  A
categorical related feature spans several encoded columns; its columns share
one lambda_j and their scores add.  The penalty and its gradient gather the
related columns of X once per call, as one block, score every column against
the centered predictions in one einsum and add the scores per feature with
``np.bincount``.  No sum over rows goes through BLAS, so neither depends on
the BLAS thread count.

The public functions check their arguments on every call.  The training
loop's theta-phase calls ``_block_grad``, the same gradient without the
checks, on the related block of each batch and with lambda mapped to the
block's columns once per pass: the loop checks its matrices once per run,
and lambda where it is set (``weights.solve_lambda`` and the trace's
``append`` in the same epoch step), not on every step.  Both take the block and its column means
from ``_related_block``.

The penalty is piecewise linear in the predictions, so its gradient is exact
between kinks; at a kink (zero covariance) we take subgradient 0.

eta and beta come from the ``TrainConfig`` the training loop holds, which is
the one place they are validated (eta >= 0, beta > 0).
"""

import numpy as np

from relfair.weights import on_simplex


def _checked(X, related, lam, yhat):
    """The penalty's arguments as float arrays, checked against each other."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (related.k,):
        raise ValueError(f"lambda has shape {lam.shape}, expected ({related.k},)")
    if not on_simplex(lam):
        raise ValueError("lambda must lie on the probability simplex")
    yhat = np.asarray(yhat, dtype=float)
    if yhat.shape != (X.shape[0],):
        raise ValueError("yhat length must match the number of rows")
    return X, lam, yhat


def _scores(block, yhat):
    """Each column's signed score against ``yhat``: the mean is taken as
    ``np.mean`` takes it, a sum over the rows divided by their count."""
    return np.einsum("ij,i->j", block, yhat - np.add.reduce(yhat) / len(yhat))


def related_penalty(X, related, lam, yhat):
    """Weighted correlation-score penalty.

    Returns ``(total, per_feature)`` where ``per_feature[j]`` sums the
    correlation scores of feature j's encoded columns against ``yhat`` and
    ``total = sum_j lam[j] * per_feature[j]``.
    """
    X, lam, yhat = _checked(X, related, lam, yhat)
    per_feature = _per_feature(X[:, related.columns], related, yhat)
    return float(lam @ per_feature), per_feature


def _per_feature(block, related, yhat):
    """``related_penalty``'s per-feature scores from the related block."""
    return np.bincount(related.owner, np.abs(_scores(block, yhat)), minlength=related.k)


def penalty_grad_yhat(X, related, lam, yhat):
    """Gradient of the weighted penalty with respect to the predictions."""
    X, lam, yhat = _checked(X, related, lam, yhat)
    return _block_grad(*_related_block(X, related.columns), lam[related.owner], yhat)


def _related_block(X, columns):
    """``X[:, columns]``, F-ordered as that makes it, and its column means."""
    block = X[:, columns]
    return block, np.add.reduce(block, axis=0) / len(block)


def _block_grad(block, col_mean, col_lam, yhat):
    """The penalty gradient from ``_related_block``'s block and column means
    and each column's lambda.  The block's sums over rows round in its
    memory order."""
    w = col_lam * np.sign(_scores(block, yhat))
    # d/dyhat of sum_c w_c x_c . (yhat - mean yhat) is sum_c w_c (x_c - mean x_c)
    return np.einsum("ij,j->i", block, w) - col_mean @ w


def total_objective(cls_loss, penalty_total, lam, cfg):
    """Classification loss + eta-weighted penalty + beta * ||lambda||^2.

    ``cfg`` is the ``TrainConfig`` of the run; only its eta and beta are read.
    """
    lam = np.asarray(lam, dtype=float)
    value = cls_loss + cfg.eta * penalty_total + cfg.beta * float(lam @ lam)
    if not np.isfinite(value):
        raise ValueError("objective is not finite")
    return float(value)
