import re

import numpy as np
import pytest

from _lambda_oracle import project_simplex, qp_oracle
from relfair.weights import LambdaSolution, solve_lambda


def assert_valid_solution(sol: LambdaSolution, scores, beta):
    scores = np.asarray(scores, dtype=float)
    assert np.all(sol.lam >= 0.0)
    assert abs(sol.lam.sum() - 1.0) < 1e-10
    # complementary slackness / stationarity on the active set
    for j in sol.active_set:
        assert abs(scores[j] + 2.0 * beta * sol.lam[j] + sol.v) < 1e-8


class TestSolveLambda:
    def test_single_feature(self):
        for r, beta in [(0.0, 0.5), (3.7, 0.01), (100.0, 10.0)]:
            sol = solve_lambda([r], beta)
            assert sol.lam == pytest.approx([1.0])
            assert_valid_solution(sol, [r], beta)

    def test_equal_scores_uniform(self):
        for k in [2, 3, 7]:
            sol = solve_lambda(np.full(k, 0.42), beta=0.3)
            assert sol.lam == pytest.approx(np.full(k, 1.0 / k))
            assert_valid_solution(sol, np.full(k, 0.42), 0.3)

    def test_both_active_instance(self):
        # enumeration oracle: both-active linear system gives v=-0.65, lam=(0.55, 0.45)
        sol = solve_lambda([0.1, 0.2], beta=0.5)
        assert sol.v == pytest.approx(-0.65)
        assert sol.lam == pytest.approx([0.55, 0.45])
        assert sol.active_set == (0, 1)
        assert_valid_solution(sol, [0.1, 0.2], 0.5)

    def test_zeroed_feature_instance(self):
        # small beta drops the feature with the larger score: v=-0.3, lam=(1, 0)
        sol = solve_lambda([0.1, 0.5], beta=0.1)
        assert sol.v == pytest.approx(-0.3)
        assert sol.lam == pytest.approx([1.0, 0.0])
        assert sol.active_set == (0,)
        assert_valid_solution(sol, [0.1, 0.5], 0.1)

    @pytest.mark.parametrize("scores, beta, total", [
        ([1.0, 2.0], 1e-300, "0"),  # 2 beta vanishes next to the smallest score
        ([1209.0, 1284.0, 4701.0], 1e-13, "1.13687"),  # half an ulp of 1209 ends up in lam
    ])
    def test_beta_too_small_for_the_scores_is_named(self, scores, beta, total):
        # 2 beta below the rounding unit of the scores leaves no room for the
        # weights, so the closed form cannot return a point on the simplex
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"beta {beta:g} is too small next to the scores (largest |score| "
                f"{max(scores):g}): the weights sum to {total} after rounding"
            ),
        ):
            solve_lambda(scores, beta)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            scores = rng.uniform(0.0, rng.choice([0.5, 5.0, 200.0]), size=k)
            beta = float(rng.uniform(0.01, 2.0))
            sol = solve_lambda(scores, beta)
            ref = qp_oracle(scores, beta, method="enumerate")
            assert np.abs(sol.lam - ref).max() < 1e-6
            assert_valid_solution(sol, scores, beta)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            scores = rng.uniform(0.0, 3.0, size=k)
            beta = float(rng.uniform(0.1, 1.5))
            sol = solve_lambda(scores, beta)
            ref = qp_oracle(scores, beta, method="projected_gradient")
            assert np.abs(sol.lam - ref).max() < 1e-6

    def test_objective_never_above_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            scores = rng.uniform(0.0, 4.0, size=k)
            beta = float(rng.uniform(0.05, 3.0))
            sol = solve_lambda(scores, beta)
            ref = qp_oracle(scores, beta, method="enumerate")
            obj_ref = float(scores @ ref + beta * ref @ ref)
            assert float(scores @ sol.lam + beta * sol.lam @ sol.lam) <= obj_ref + 1e-8

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(0.0, 1.0, size=5)
        perm = rng.permutation(5)
        a = solve_lambda(scores, 0.4).lam
        b = solve_lambda(scores[perm], 0.4).lam
        assert b == pytest.approx(a[perm])

    def test_monotonicity_in_score(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores = rng.uniform(0.0, 2.0, size=4)
            beta = float(rng.uniform(0.05, 1.0))
            j = int(rng.integers(0, 4))
            bumped = scores.copy()
            bumped[j] += float(rng.uniform(0.0, 1.0))
            assert (
                solve_lambda(bumped, beta).lam[j]
                <= solve_lambda(scores, beta).lam[j] + 1e-12
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(0.0, 1.0, size=6)
        base = solve_lambda(scores, 0.7).lam
        for c in [0.5, 10.0, 123.4]:
            assert solve_lambda(scores + c, 0.7).lam == pytest.approx(base, abs=1e-9)

    def test_exact_breakpoints_match_enumeration_oracle(self):
        # half-integer scores and power-of-two beta: tau_m lands exactly on a score
        rng = np.random.default_rng(14)
        for _ in range(300):
            k = int(rng.integers(1, 9))
            scores = rng.integers(0, 8, size=k) / 2.0
            beta = float(2.0 ** rng.integers(-3, 2))  # 1/8 .. 2
            sol = solve_lambda(scores, beta)
            ref = qp_oracle(scores, beta, method="enumerate")
            assert np.abs(sol.lam - ref).max() < 1e-9
            assert_valid_solution(sol, scores, beta)

    def test_scale_equivariance(self):
        # scaling scores and beta by a power of two scales tau exactly
        rng = np.random.default_rng(15)
        for _ in range(20):
            scores = rng.uniform(0.0, 3.0, size=int(rng.integers(1, 9)))
            beta = float(rng.uniform(0.01, 2.0))
            base = solve_lambda(scores, beta).lam
            for e in range(-20, 21):
                c = 2.0 ** e
                assert solve_lambda(c * scores, c * beta).lam.tobytes() == base.tobytes()

    def test_ties_share_weight(self):
        sol = solve_lambda([0.3, 0.3, 0.9], beta=0.2)
        assert sol.lam[0] == pytest.approx(sol.lam[1], abs=1e-12)
        assert_valid_solution(sol, [0.3, 0.3, 0.9], 0.2)

    def test_large_beta_approaches_uniform(self):
        scores = np.array([0.1, 0.9, 0.4])
        lam = solve_lambda(scores, beta=1e6).lam
        assert lam == pytest.approx(np.full(3, 1 / 3), abs=1e-5)

    def test_small_beta_picks_argmin(self):
        scores = np.array([0.8, 0.05, 0.6])
        lam = solve_lambda(scores, beta=1e-8).lam
        assert lam == pytest.approx([0.0, 1.0, 0.0], abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_lambda([], 0.5)
        with pytest.raises(ValueError):
            solve_lambda([0.1, np.inf], 0.5)
        with pytest.raises(ValueError):
            solve_lambda([0.1], 0.0)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        assert project_simplex(v) == pytest.approx(v)

    def test_projection_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.normal(scale=3.0, size=int(rng.integers(1, 10)))
            p = project_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0)
            # projection is the closest simplex point: check against random feasible points
            for _ in range(10):
                q = rng.dirichlet(np.ones(v.size))
                assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-10
