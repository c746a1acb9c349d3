import math
import re

import numpy as np
import pytest
from _correlation_oracle import correlation_score

from relfair.stats import (
    CorrelationInterval,
    DegenerateVarianceError,
    fairness_bound,
    pearson,
    propagate_bound,
)


def pearson_by_definition(x, y):
    # independent oracle: literal expectation / (sigma_x * sigma_y), all divide-by-n
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y)) / n
    sx = math.sqrt(sum((xi - mx) ** 2 for xi in x) / n)
    sy = math.sqrt(sum((yi - my) ** 2 for yi in y) / n)
    return cov / (sx * sy)


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=100)
            y = rng.normal(size=100) + 0.5 * x
            assert pearson(x, y) == pytest.approx(
                pearson_by_definition(x.tolist(), y.tolist()), abs=1e-12
            )

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            r = pearson(x, y)
            assert r == pytest.approx(pearson(y, x), abs=1e-14)
            assert -1.0 <= r <= 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        r = pearson(x, y)
        for a, b in [(2.5, 1.0), (-3.0, 7.0), (0.1, -2.0)]:
            assert pearson(a * x + b, y) == pytest.approx(
                math.copysign(1.0, a) * r, abs=1e-10
            )

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    # the float mean of these constants is not exactly their value, so the
    # centred vector, and the std, come out as rounding residue above zero
    @pytest.mark.parametrize("value, n", [(0.1, 60), (0.3, 60), (1.7, 1000)])
    @pytest.mark.parametrize("constant_first", [True, False], ids=["x", "y"])
    def test_a_fractional_constant_raises(self, value, n, constant_first):
        constant, other = np.full(n, value), np.random.default_rng(n).normal(size=n)
        args = (constant, other) if constant_first else (other, constant)
        with pytest.raises(DegenerateVarianceError):
            pearson(*args)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_a_matrix_is_named(self):
        with pytest.raises(ValueError, match=r"^x must be 1-D, got shape \(2, 2\)$"):
            pearson([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])


class TestCorrelationScore:
    def test_constant_inputs_give_zero(self):
        assert correlation_score([3, 3, 3, 3], [0.1, 0.9, 0.2, 0.8]) == 0.0
        assert correlation_score([0, 1, 2, 3], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_hand_expansion(self):
        # x=[0,1] centered is [-0.5, 0.5]; |(-0.5)(0.2) + (0.5)(0.8)| = 0.3
        assert correlation_score([0, 1], [0.2, 0.8]) == pytest.approx(0.3)

    def test_center_both_equals_center_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=25)
            yhat = rng.uniform(size=25)
            both = abs(float((x - x.mean()) @ (yhat - yhat.mean())))
            assert correlation_score(x, yhat) == pytest.approx(both, abs=1e-12)

    def test_proportional_to_pearson(self):
        # score == |pearson| * sigma_x * sigma_yhat * n under the divide-by-n convention
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            x = rng.normal(size=n)
            yhat = rng.uniform(size=n)
            expected = (
                abs(pearson(x, yhat)) * x.std() * yhat.std() * n
            )
            assert correlation_score(x, yhat) == pytest.approx(expected, rel=1e-10)


class TestPropagateBound:
    def test_perfect_first_leg_collapses(self):
        for c in [-1.0, -0.3, 0.0, 0.7, 1.0]:
            iv = propagate_bound(1.0, c)
            assert iv.lo == pytest.approx(c, abs=1e-12)
            assert iv.hi == pytest.approx(c, abs=1e-12)

    def test_orthogonal_pair_uninformative(self):
        iv = propagate_bound(0.0, 0.0)
        assert iv.lo == pytest.approx(-1.0)
        assert iv.hi == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            propagate_bound(1.2, 0.0)
        with pytest.raises(ValueError):
            propagate_bound(0.0, -1.0001)

    def test_monte_carlo_never_violated(self):
        # measured rho(X, Z) must always land inside the propagated interval
        rng = np.random.default_rng(5)
        for _ in range(1000):
            base = rng.normal(size=(200, 3))
            mix = rng.normal(size=(3, 3))
            x, y, z = (base @ mix).T
            iv = propagate_bound(pearson(x, y), pearson(y, z))
            assert iv.contains(pearson(x, z), slack=1e-9)


class TestFairnessBound:
    def test_perfect_proxy_exact_constraint(self):
        iv = fairness_bound([0.0], 0.0)
        assert iv.lo == pytest.approx(0.0, abs=1e-12)
        assert iv.hi == pytest.approx(0.0, abs=1e-12)

    def test_uncorrelated_proxy_constrains_nothing(self):
        iv = fairness_bound([math.pi / 2], 0.0)
        assert iv.lo == pytest.approx(-1.0)
        assert iv.hi == pytest.approx(1.0)

    def test_composition_with_propagate_bound(self):
        # the bound must match composing the two-variable propagation at the
        # extreme regularized angles pi/2 +- delta for the best proxy
        alphas = [math.pi / 6, math.pi / 3]
        delta = 0.1
        iv = fairness_bound(alphas, delta)
        a_min = min(alphas)
        lo = propagate_bound(math.cos(a_min), math.cos(math.pi / 2 + delta)).lo
        hi = propagate_bound(math.cos(a_min), math.cos(math.pi / 2 - delta)).hi
        assert iv.lo == pytest.approx(lo, abs=1e-12)
        assert iv.hi == pytest.approx(hi, abs=1e-12)

    def test_monotone_in_alpha_min_only(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            angles = sorted(rng.uniform(0.0, math.pi / 2, size=3))
            delta = float(rng.uniform(0.0, 0.3))
            tight = fairness_bound([angles[0]], delta)
            widened = fairness_bound(angles, delta)
            assert widened.lo <= tight.lo + 1e-12
            assert widened.hi >= tight.hi - 1e-12
            # adding larger angles leaves the interval unchanged
            assert widened.lo == pytest.approx(tight.lo, abs=1e-12)

    def test_empty_alphas_rejected(self):
        with pytest.raises(ValueError):
            fairness_bound([], 0.1)

    @pytest.mark.parametrize("alphas, delta, message", [
        ([0.2, 2.0], 0.1, "all alphas must lie in [0, pi/2]"),
        ([-0.1], 0.1, "all alphas must lie in [0, pi/2]"),
        ([0.2], -0.1, "delta must lie in [0, pi/2]"),
        ([0.2], 2.0, "delta must lie in [0, pi/2]"),
    ], ids=["alpha-above", "alpha-below", "delta-below", "delta-above"])
    def test_an_angle_out_of_range_is_named(self, alphas, delta, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            fairness_bound(alphas, delta)


class TestCorrelationInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CorrelationInterval(0.5, 0.2)
        with pytest.raises(ValueError):
            CorrelationInterval(-1.5, 0.0)

    def test_contains_with_slack(self):
        iv = CorrelationInterval(-0.25, 0.25)
        assert iv.contains(0.25)
        assert not iv.contains(0.2500001)
        assert iv.contains(0.2500001, slack=1e-6)
