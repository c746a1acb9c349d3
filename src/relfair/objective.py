"""The fairness-regularized training objective.

Total loss is ``L_cls + eta * sum_j lambda_j R_j + beta * ||lambda||^2`` where
R_j is the correlation score of related feature j against the predictions.  A
categorical related feature spans several encoded columns; its columns share
one lambda_j and their scores add.

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


def _centered(X, cols):
    block = X[:, list(cols)]
    return block - block.mean(axis=0)


def related_penalty(X, related, lam, yhat):
    """Weighted correlation-score penalty.

    Returns ``(total, per_feature)`` where ``per_feature[j]`` sums the
    correlation scores of feature j's encoded columns against ``yhat`` and
    ``total = sum_j lam[j] * per_feature[j]``.
    """
    X, lam, yhat = _checked(X, related, lam, yhat)
    per_feature = np.empty(related.k)
    for j, cols in enumerate(related.column_groups):
        per_feature[j] = np.abs(_centered(X, cols).T @ yhat).sum()
    return float(lam @ per_feature), per_feature


def penalty_grad_yhat(X, related, lam, yhat):
    """Gradient of the weighted penalty with respect to the predictions."""
    X, lam, yhat = _checked(X, related, lam, yhat)
    grad = np.zeros_like(yhat)
    for j, cols in enumerate(related.column_groups):
        if lam[j] == 0.0:
            continue
        centered = _centered(X, cols)
        signs = np.sign(centered.T @ yhat)
        grad += lam[j] * (centered @ signs)
    return grad


def total_objective(cls_loss, penalty_total, lam, cfg):
    """Classification loss + eta-weighted penalty + beta * ||lambda||^2.

    ``cfg`` is the ``TrainConfig`` of the run; only its eta and beta are read.
    """
    lam = np.asarray(lam, dtype=float)
    value = cls_loss + cfg.eta * penalty_total + cfg.beta * float(lam @ lam)
    if not np.isfinite(value):
        raise ValueError("objective is not finite")
    return float(value)
