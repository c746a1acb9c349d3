import re

import numpy as np
import pytest
from _correlation_oracle import correlation_score
from _fresh_python import run_python

from relfair.data import RelatedFeatureSet
from relfair.objective import (
    _col_means,
    _penalty_grad,
    _related_block,
    penalty_grad_yhat,
    related_penalty,
    total_objective,
)
from relfair.training import TrainConfig


def penalty_by_definition(X, related, lam, yhat):
    """Independent evaluation: per-column correlation scores, literal loops."""
    per = []
    for cols in related.column_groups:
        per.append(sum(correlation_score(X[:, c], yhat) for c in cols))
    total = sum(l * r for l, r in zip(lam, per))
    return total, np.array(per)


def make_related(groups):
    return RelatedFeatureSet(
        features=tuple(f"f{j}" for j in range(len(groups))),
        column_groups=tuple(tuple(g) for g in groups),
    )


class TestRelatedPenalty:
    def test_hand_expansion_tiny(self):
        # feature 0 = column 0 = [0,1,0,1]; feature 1 = column 1 = [1,2,3,4]
        X = np.array([[0.0, 1.0], [1.0, 2.0], [0.0, 3.0], [1.0, 4.0]])
        yhat = np.array([0.1, 0.2, 0.3, 0.4])
        related = make_related([(0,), (1,)])
        lam = np.array([0.25, 0.75])
        # col 0 centered: [-.5,.5,-.5,.5] . yhat = -.05+.1-.15+.2 = 0.1
        # col 1 centered: [-1.5,-.5,.5,1.5] . yhat = -.15-.1+.15+.6 = 0.5
        total, per = related_penalty(X, related, lam, yhat)
        assert per == pytest.approx([0.1, 0.5])
        assert total == pytest.approx(0.25 * 0.1 + 0.75 * 0.5)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(2, 7))
            X = rng.normal(size=(n, d))
            cols = list(rng.permutation(d))
            cut = int(rng.integers(1, d))
            groups = [tuple(cols[:cut]), tuple(cols[cut:])]
            lam = rng.dirichlet([1.0, 1.0])
            yhat = rng.uniform(size=n)
            related = make_related(groups)
            total, per = related_penalty(X, related, lam, yhat)
            exp_total, exp_per = penalty_by_definition(X, related, lam, yhat)
            assert per == pytest.approx(exp_per, abs=1e-10)
            assert total == pytest.approx(exp_total, abs=1e-10)
            assert total >= 0

    def test_one_hot_lambda_selects_single_feature(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        related = make_related([(0,), (1, 2)])
        yhat = rng.uniform(size=10)
        total, per = related_penalty(X, related, [1.0, 0.0], yhat)
        assert total == pytest.approx(per[0])

    def test_constant_yhat_zero(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 2))
        related = make_related([(0,), (1,)])
        total, per = related_penalty(X, related, [0.5, 0.5], np.full(8, 0.37))
        assert total == pytest.approx(0.0, abs=1e-12)
        assert per == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_linear_in_lambda(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 4))
        related = make_related([(0, 1), (2,), (3,)])
        yhat = rng.uniform(size=12)
        la, lb = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        for alpha in (0.0, 0.3, 1.0):
            mix = alpha * la + (1 - alpha) * lb
            t_mix, _ = related_penalty(X, related, mix, yhat)
            t_a, _ = related_penalty(X, related, la, yhat)
            t_b, _ = related_penalty(X, related, lb, yhat)
            assert t_mix == pytest.approx(alpha * t_a + (1 - alpha) * t_b)

    def test_positive_scaling_of_column(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(9, 2))
        related = make_related([(0,), (1,)])
        yhat = rng.uniform(size=9)
        _, per = related_penalty(X, related, [0.5, 0.5], yhat)
        X2 = X.copy()
        X2[:, 0] *= 7.5
        _, per2 = related_penalty(X2, related, [0.5, 0.5], yhat)
        assert per2[0] == pytest.approx(7.5 * per[0])
        assert per2[1] == pytest.approx(per[1])

    def test_rejects_off_simplex_lambda(self):
        X = np.zeros((4, 2))
        related = make_related([(0,), (1,)])
        with pytest.raises(ValueError):
            related_penalty(X, related, [0.9, 0.3], np.zeros(4))

    def test_rejects_length_mismatch(self):
        X = np.zeros((4, 2))
        related = make_related([(0,), (1,)])
        with pytest.raises(ValueError):
            related_penalty(X, related, [0.5, 0.5], np.zeros(5))

    @pytest.mark.parametrize("X, lam, message", [
        (np.zeros(4), [0.5, 0.5], "expected a 2-d feature matrix, got shape (4,)"),
        (np.zeros((4, 2)), [1.0], "lambda has shape (1,), expected (2,)"),
    ], ids=["1-d-features", "lambda-length"])
    def test_misshapen_arguments_are_named(self, X, lam, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            related_penalty(X, make_related([(0,), (1,)]), lam, np.zeros(4))


class TestPenaltyGrad:
    def test_finite_difference_match(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        checked = 0
        while checked < 30:
            n = int(rng.integers(5, 20))
            X = rng.normal(size=(n, 3))
            related = make_related([(0,), (1, 2)])
            lam = rng.dirichlet(np.ones(2))
            yhat = rng.uniform(size=n)
            # stay away from the kink set so the FD probe sees a smooth patch
            centered = X - X.mean(axis=0)
            if np.min(np.abs(centered.T @ yhat)) < 1e-8:
                continue
            checked += 1
            grad = penalty_grad_yhat(X, related, lam, yhat)
            for i in range(n):
                up, down = yhat.copy(), yhat.copy()
                up[i] += h
                down[i] -= h
                t_up, _ = related_penalty(X, related, lam, up)
                t_down, _ = related_penalty(X, related, lam, down)
                fd = (t_up - t_down) / (2 * h)
                assert abs(fd - grad[i]) / max(1.0, abs(fd)) < 1e-4

    def test_matches_definition(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n, d = int(rng.integers(4, 30)), int(rng.integers(2, 9))
            X, yhat = rng.normal(size=(n, d)), rng.uniform(size=n)
            cuts = np.sort(rng.choice(np.arange(1, d), size=min(2, d - 1), replace=False))
            groups = [tuple(g) for g in np.split(rng.permutation(d), cuts)]
            lam = rng.dirichlet(np.ones(len(groups)))
            expected = np.zeros(n)
            for weight, cols in zip(lam, groups):
                for c in cols:
                    centered = X[:, c] - X[:, c].mean()
                    expected += weight * np.sign(centered @ yhat) * centered
            grad = penalty_grad_yhat(X, make_related(groups), lam, yhat)
            assert grad == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_covariance_gives_zero_gradient(self):
        # yhat orthogonal to the centered column -> at the kink, subgradient 0
        X = np.array([[1.0], [2.0], [3.0]])
        related = make_related([(0,)])
        yhat = np.array([1.0, 1.0, 1.0])  # centered col is [-1,0,1], dot = 0
        grad = penalty_grad_yhat(X, related, [1.0], yhat)
        assert grad == pytest.approx(np.zeros(3))

    def test_one_hot_lambda_uses_only_its_columns(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 3))
        related = make_related([(0,), (1, 2)])
        yhat = rng.uniform(size=10)
        grad = penalty_grad_yhat(X, related, [1.0, 0.0], yhat)
        c = X[:, 0] - X[:, 0].mean()
        assert grad == pytest.approx(np.sign(c @ yhat) * c)


@pytest.mark.parametrize("groups", [[(0,)], [(0,), (1, 2)], [(3,), (0, 1, 2)]])
@pytest.mark.parametrize("n", [1, 2, 7, 128, 311])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("shared", [True, False], ids=["one-block", "block-per-run"])
@pytest.mark.parametrize("values", ["gaussian", "binary"])
def test_unchecked_kernel_equals_the_public_gradient(groups, n, k, shared, values):
    # the theta-phase calls the kernel for all runs of a group at once, on
    # arguments the loop has checked: one block that every run reads (one
    # seed), or each run's own rows of a (k, n, d) batch (several seeds)
    rng = np.random.default_rng([n, k])
    X = rng.normal(size=(k + 1, n, 4))
    if values == "binary":
        X = (X > 0.0).astype(float)
    if shared:
        X[:] = X[0]
    related = make_related(groups)
    lams = rng.dirichlet(np.ones(related.k), size=k)
    lams[0] = np.eye(related.k)[-1]  # a vertex: a feature whose weight is 0
    yhat = rng.uniform(size=(k, n))
    rows = np.arange(k, 0, -1)  # run j reads X[rows[j]]
    if shared:
        block = _related_block(X[0], related.columns)
        blocks = np.broadcast_to(block, (k, *block.shape))
    else:
        block = blocks = _related_block(X, related.columns, rows)
    got = _penalty_grad(blocks, _col_means(block), lams[:, related.owner], yhat)
    assert got.shape == (k, n)
    for j in range(k):
        want = penalty_grad_yhat(X[rows[j]], related, lams[j], yhat[j])
        assert got[j].tobytes() == want.tobytes()


@pytest.mark.parametrize("fn", [related_penalty, penalty_grad_yhat])
@pytest.mark.parametrize("shape", [(10, 2), (10, 1), (9,)])
def test_yhat_of_the_wrong_shape_is_rejected(fn, shape):
    X = np.random.default_rng(7).normal(size=(10, 3))
    related = make_related([(0,), (1, 2)])
    with pytest.raises(ValueError, match="yhat length must match the number of rows"):
        fn(X, related, [0.5, 0.5], np.full(shape, 0.5))


class TestTotalObjective:
    def test_eta_zero(self):
        cfg = TrainConfig(eta=0.0, beta=0.5)
        lam = np.array([0.25, 0.75])
        got = total_objective(1.7, 123.0, lam, cfg)
        assert got == pytest.approx(1.7 + 0.5 * (0.25**2 + 0.75**2))

    def test_uniform_lambda_beta_term(self):
        for k in (1, 2, 5):
            cfg = TrainConfig(eta=0.0, beta=0.8)
            lam = np.full(k, 1.0 / k)
            assert total_objective(0.0, 0.0, lam, cfg) == pytest.approx(0.8 / k)

    def test_random_formula_cross_check(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            eta, beta = rng.uniform(0, 2), rng.uniform(0.1, 2)
            cls_loss, pen = rng.uniform(0, 5), rng.uniform(0, 5)
            lam = rng.dirichlet(np.ones(4))
            cfg = TrainConfig(eta=eta, beta=beta)
            expected = cls_loss + eta * pen + beta * sum(v * v for v in lam)
            assert total_objective(cls_loss, pen, lam, cfg) == pytest.approx(expected)

    def test_nonfinite_rejected(self):
        cfg = TrainConfig(eta=1.0, beta=0.5)
        with pytest.raises(ValueError):
            total_objective(float("nan"), 0.0, np.array([1.0]), cfg)


# The per-feature products of an earlier implementation went through BLAS and
# gave different last bits at 1 and 2 OpenBLAS threads on this input.
THREADS_CODE = (
    "import hashlib\n"
    "import numpy as np\n"
    "from relfair.data import RelatedFeatureSet\n"
    "from relfair.objective import penalty_grad_yhat, related_penalty\n"
    "rng = np.random.default_rng(1)\n"
    "X, yhat = rng.normal(size=(12513, 102)), rng.uniform(size=12513)\n"
    "groups = ((0,), tuple(range(1, 7)), tuple(range(7, 14)), tuple(range(14, 102)))\n"
    "related = RelatedFeatureSet(('a', 'b', 'c', 'd'), groups)\n"
    "lam = np.array([0.1, 0.2, 0.3, 0.4])\n"
    "total, per = related_penalty(X, related, lam, yhat)\n"
    "grad = penalty_grad_yhat(X, related, lam, yhat)\n"
    "for arr in (np.append(per, total), grad):\n"
    "    print(hashlib.sha256(arr.tobytes()).hexdigest())\n"
)


def test_penalty_does_not_depend_on_blas_threads():
    digests = [run_python(["-c", THREADS_CODE], threads) for threads in (1, 2)]
    assert len(digests[0].split()) == 2
    assert digests[0] == digests[1]
