"""The fairness-regularized training objective.

Total loss is ``L_cls + eta * sum_j lambda_j R_j + beta * ||lambda||^2`` where
R_j is the correlation score of related feature j against the predictions.  A
categorical related feature spans several encoded columns; its columns share
one lambda_j and their scores add.  The penalty and its gradient gather the
related columns of X once per call, as one block, score every column against
the centered predictions in one einsum and add the scores per feature with
``np.bincount``.  No sum over rows goes through BLAS, so neither depends on
the BLAS thread count.

A related block (``_related_block``) holds its columns first: a C-contiguous
``(c, n)`` array, or ``(g, c, n)`` for g runs at once, so each column's n
rows are contiguous.  Every sum over the rows (a column's mean, a score, the
centring of the predictions) then runs along a contiguous axis, in the order
the one-dimensional sum takes, whatever g is.  ``_penalty_grad`` is the
gradient of g runs in one computation: the centring is one reduction along
the rows of the ``(g, n)`` predictions, the scores and the gradient are one
einsum each over the block, and each run's ``col_mean . w``, a sum over the
columns, is one stacked matmul, which numpy hands to the same BLAS dot
product as a single run's 1-d ``col_mean @ w``.  So each run's row of the
result is the bits of that run alone, and a run whose block is shared
(``np.broadcast_to``) reads it in place.  ``penalty_grad_yhat`` is its
checked call for one run.

The public functions check their arguments on every call.  The training
loop's theta-phase calls ``_penalty_grad`` without the checks, on the related
blocks of each batch and with lambda mapped to the blocks' columns once per
pass: the loop checks its matrices once per run, and lambda where it is set
(``weights.solve_lambda`` and the trace's ``append`` in the same epoch step),
not on every step.

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


def _related_block(X, columns, rows=None):
    """The ``columns`` of ``X`` as a related block: the ``(c, n)`` block of
    an (n, d) X, or with ``rows`` the ``(g, c, n)`` block of those rows of a
    (k, n, d) X, one X per run."""
    if rows is None:
        block = X[:, columns].T  # numpy lays X[:, columns] out column by column
    else:  # advanced indices apart: their broadcast axes lead
        block = X[np.asarray(rows)[:, None], :, columns]
    return np.ascontiguousarray(block)


def _col_means(block):
    """Each column's mean over its rows: a sum along them over their count."""
    return np.add.reduce(block, axis=-1) / block.shape[-1]


def _scores(block, yhat):
    """Each column's signed score against ``yhat``, ``(..., c)`` from a
    ``(..., c, n)`` block and ``(..., n)`` predictions: the mean is taken as
    ``np.mean`` takes it, a sum over the rows divided by their count."""
    centred = yhat - np.add.reduce(yhat, axis=-1, keepdims=True) / yhat.shape[-1]
    return np.einsum("...ij,...i->...j", block.swapaxes(-1, -2), centred)


def related_penalty(X, related, lam, yhat):
    """Weighted correlation-score penalty.

    Returns ``(total, per_feature)`` where ``per_feature[j]`` sums the
    correlation scores of feature j's encoded columns against ``yhat`` and
    ``total = sum_j lam[j] * per_feature[j]``.
    """
    X, lam, yhat = _checked(X, related, lam, yhat)
    per_feature = _per_feature(_related_block(X, related.columns), related, yhat)
    return float(lam @ per_feature), per_feature


def _per_feature(block, related, yhat):
    """``related_penalty``'s per-feature scores from the ``(c, n)`` related block."""
    return np.bincount(related.owner, np.abs(_scores(block, yhat)), minlength=related.k)


def penalty_grad_yhat(X, related, lam, yhat):
    """Gradient of the weighted penalty with respect to the predictions."""
    X, lam, yhat = _checked(X, related, lam, yhat)
    block = _related_block(X, related.columns)
    return _penalty_grad(block[None], _col_means(block), lam[related.owner][None], yhat[None])[0]


def _penalty_grad(block, col_mean, col_lam, yhat):
    """The penalty gradients of g runs, ``(g, n)``, from their ``(g, c, n)``
    related block (a run's may be shared through ``np.broadcast_to``), its
    ``(g, c)`` column means (or one ``(c,)`` row for all), each run's lambda
    per column, ``(g, c)``, and the ``(g, n)`` predictions."""
    w = col_lam * np.sign(_scores(block, yhat))
    # d/dyhat of sum_c w_c x_c . (yhat - mean yhat) is sum_c w_c (x_c - mean x_c)
    return (np.einsum("kji,kj->ki", block, w)
            - np.matmul(col_mean[..., None, :], w[..., None])[:, 0])


def total_objective(cls_loss, penalty_total, lam, cfg):
    """Classification loss + eta-weighted penalty + beta * ||lambda||^2.

    ``cfg`` is the ``TrainConfig`` of the run; only its eta and beta are read.
    """
    lam = np.asarray(lam, dtype=float)
    value = cls_loss + cfg.eta * penalty_total + cfg.beta * float(lam @ lam)
    if not np.isfinite(value):
        raise ValueError("objective is not finite")
    return float(value)
