"""Reference solvers for the weight subproblem, independent of solve_lambda.

The tests and ``demos/lambda_solver_demo.py`` compare the closed form in
``relfair.weights`` against these.  Both sides stay hand-written (see the
``relfair.weights`` docstring).
"""

import numpy as np


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    x = np.asarray(v, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def qp_oracle(scores, beta: float, method: str = "enumerate") -> np.ndarray:
    """Reference solution for the weight subproblem, independent of solve_lambda.

    method="enumerate": try all 2^K - 1 candidate supports, solve each
    equality-constrained quadratic, keep the feasible minimizer (K <= 16).
    method="projected_gradient": long-run projected gradient descent on the
    simplex (any K).
    """
    r = np.asarray(scores, dtype=float)
    k = r.size
    if method == "enumerate":
        if k > 16:
            raise ValueError("enumeration oracle limited to K <= 16")
        best = None
        best_obj = np.inf
        for mask in range(1, 2**k):
            support = [j for j in range(k) if mask >> j & 1]
            # on the support: lam_j = (-v - R_j) / (2 beta), sum = 1
            v = -(2.0 * beta + r[support].sum()) / len(support)
            lam = np.zeros(k)
            lam[support] = (-v - r[support]) / (2.0 * beta)
            if lam[support].min() < -1e-12:
                continue
            lam = np.maximum(lam, 0.0)
            obj = float(r @ lam + beta * lam @ lam)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best = lam
        return best
    if method == "projected_gradient":
        lam = np.full(k, 1.0 / k)
        step = 1.0 / (2.0 * beta + 1.0)
        for _ in range(20000):
            lam_next = project_simplex(lam - step * (r + 2.0 * beta * lam))
            if np.abs(lam_next - lam).max() < 1e-14:
                lam = lam_next
                break
            lam = lam_next
        return lam
    raise ValueError(f"unknown oracle method {method!r}")
