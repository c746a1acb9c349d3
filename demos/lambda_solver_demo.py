"""How the per-feature weights respond to their correlation scores.

Each refresh solves  min_lam  lam @ scores + beta * ||lam||^2  on the
probability simplex.  Small beta piles all the weight on the feature with
the lowest score; large beta spreads it toward uniform.  The closed form
reads the support off the sorted scores and their cumulative sums, so it
should (and does) match brute-force enumeration of active sets, at a
fraction of the cost once K grows.
"""

import argparse
import os
import sys
import time

import numpy as np

from relfair import solve_lambda

# the brute-force reference solver lives with the tests, not in the library
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from _lambda_oracle import qp_oracle  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scores", type=float, nargs="+",
                    default=[0.12, 0.30, 0.55, 0.80])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    scores = np.asarray(args.scores)
    print(f"scores: {scores}")
    print(f"{'beta':>8}  weights")
    for beta in (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0):
        lam = solve_lambda(scores, beta).lam
        pretty = "  ".join(f"{w:.3f}" for w in lam)
        print(f"{beta:>8.2f}  [{pretty}]")
    print()
    print("note the direction: LOW scores attract weight. the scores fed in"
          " during training are eta-scaled correlation magnitudes, so the"
          " refresh keeps weight on whichever features the model currently"
          " correlates with least -- locking their suppression in -- while"
          " features whose correlation is expensive to remove (the label"
          " genuinely depends on them) keep high scores and get little"
          " weight.")

    # agreement with enumeration, plus a rough timing for larger K
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 9))
        r = rng.uniform(0.0, 5.0, size=k)
        beta = float(10.0 ** rng.uniform(-2.0, 1.0))
        gap = np.abs(solve_lambda(r, beta).lam - qp_oracle(r, beta)).max()
        worst = max(worst, float(gap))
    print()
    print(f"500 random instances, K<=8: max |closed form - enumeration| = "
          f"{worst:.2e}")

    for k in (6, 10, 14):
        r = rng.uniform(0.0, 5.0, size=k)
        reps_brute = 50 if k <= 10 else 3  # 2^K - 1 subsets adds up fast
        t0 = time.perf_counter()
        for _ in range(500):
            solve_lambda(r, 0.5)
        closed = (time.perf_counter() - t0) / 500
        t0 = time.perf_counter()
        for _ in range(reps_brute):
            qp_oracle(r, 0.5)
        brute = (time.perf_counter() - t0) / reps_brute
        print(f"K={k:>2}: closed form {closed * 1e3:.3f} ms/solve, "
              f"enumeration {brute * 1e3:.3f} ms/solve "
              f"({brute / closed:.0f}x)")


if __name__ == "__main__":
    main()
