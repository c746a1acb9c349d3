"""End-to-end acceptance checks, one test per shipping criterion.

Every test records exactly one PASS/FAIL/SKIP line that conftest.py prints
under "acceptance criteria" at the end of the run.  Criteria 1-4 and 7 are
fully self-contained (property checks and a synthetic-bias benchmark);
criteria 5, 6 and 8 reproduce published census-income numbers and skip with
an explicit reason when the benchmark cannot be staged.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from _acceptance_log import record
from _lambda_oracle import qp_oracle
from relfair.data import RelatedFeatureSet, builtin_config
from relfair.models import ModelSpec, init_params, loss_and_grad, raw_scores
from relfair.objective import penalty_grad_yhat, related_penalty
from relfair.stats import pearson, propagate_bound
from relfair.synthetic import SyntheticSpec, generate, related_features
from relfair.training import TrainConfig, run_seeds, run_single
from relfair.weights import solve_lambda

SEEDS = (0, 1, 2, 3, 4)

# Synthetic-benchmark settings calibrated once on the generator defaults;
# small enough that criteria 4 and 7 finish in seconds.
SYNTH_CFG = TrainConfig(
    eta=0.3,
    beta=0.5,
    learning_rate=0.01,
    pretrain_epochs=5,
    max_epochs=15,
    batch_size=64,
    early_stop_patience=4,
)


def _finish(criterion, ok, detail):
    record(criterion, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {criterion}: {detail}"


def _skip(criterion, reason):
    record(criterion, "SKIP", reason)
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# 1. correlation propagation bound


def test_criterion_1_correlation_bound_holds():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    violations = 0
    worst_margin = np.inf
    for _ in range(1000):
        base = rng.normal(size=(3, 200))
        mix = rng.uniform(-1.0, 1.0, size=(3, 3))
        x, y, z = mix @ base
        x = (x - x.mean()) / x.std()
        y = (y - y.mean()) / y.std()
        z = (z - z.mean()) / z.std()
        interval = propagate_bound(pearson(x, y), pearson(y, z))
        rho_xz = pearson(x, z)
        if not interval.contains(rho_xz, slack=1e-9):
            violations += 1
        worst_margin = min(
            worst_margin, rho_xz - interval.lo, interval.hi - rho_xz
        )
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    _finish(
        1,
        ok,
        f"rho(X,Z) inside propagated interval for 1000/1000 random triples "
        f"(worst margin {worst_margin:.2e}, {elapsed:.2f}s)"
        if ok
        else f"{violations} violations in 1000 triples ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 2. closed-form weight solver vs exhaustive oracle


def test_criterion_2_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_simplex = 0.0
    worst_slack = 0.0
    worst_dual = 0.0
    for trial in range(1000):
        k = int(rng.integers(1, 7))
        scale = 10.0 ** int(rng.integers(-2, 3))
        scores = rng.uniform(0.0, 1.0, size=k) * scale
        if k > 1 and trial % 5 == 0:  # exercise tied scores
            scores[0] = scores[-1]
        beta = float(10.0 ** rng.uniform(-2.0, 1.0))
        sol = solve_lambda(scores, beta)
        lam = sol.lam
        oracle = qp_oracle(scores, beta, method="enumerate")
        worst_gap = max(worst_gap, float(np.abs(lam - oracle).max()))
        worst_simplex = max(
            worst_simplex,
            abs(float(lam.sum()) - 1.0),
            max(0.0, -float(lam.min())),
        )
        # KKT multiplier of lam_j >= 0; complementary slackness: lam_j*mu_j = 0
        mu = scores + 2.0 * beta * lam + sol.v
        worst_slack = max(worst_slack, float(np.abs(lam * mu).max()))
        worst_dual = max(worst_dual, max(0.0, -float(mu.min())))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gap < 1e-6
        and worst_simplex < 1e-8
        and worst_slack < 1e-8
        and worst_dual < 1e-8
        and elapsed < 10.0
    )
    _finish(
        2,
        ok,
        f"1000 instances, K in 1..6: max gap to oracle {worst_gap:.1e}, "
        f"simplex residual {worst_simplex:.1e}, slackness residual "
        f"{worst_slack:.1e}, dual residual {worst_dual:.1e} ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 3. analytic gradients vs central finite differences


def _fd_param_grad(params, spec, X, y, h=1e-6):
    fd = []
    for a in params.arrays():
        g = np.zeros_like(a)
        flat_a, flat_g = a.ravel(), g.ravel()
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + h
            plus, _ = loss_and_grad(params, spec, X, y)
            flat_a[i] = orig - h
            minus, _ = loss_and_grad(params, spec, X, y)
            flat_a[i] = orig
            flat_g[i] = (plus - minus) / (2.0 * h)
        fd.append(g)
    return fd


def _rel_err(analytic, fd):
    a = np.concatenate([g.ravel() for g in analytic])
    b = np.concatenate([g.ravel() for g in fd])
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def _relu_kink_distance(params, X):
    """Smallest |preactivation| across hidden layers (0 for a dead row)."""
    gap, a = np.inf, X
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        pre = a @ W + b
        gap = min(gap, float(np.abs(pre).min()))
        a = np.maximum(pre, 0.0)
    return gap


def _model_instances(kind, rng, count):
    """Random small (spec, params, X, y), rejecting draws near a loss kink.

    Biases get jittered off their zero init so no preactivation sits exactly
    on a ReLU corner; draws still within 1e-3 of a corner (or 1e-2 of the
    hinge for the SVM) are redrawn, since central differences are only valid
    away from the kinks.
    """
    out = []
    while len(out) < count:
        d = int(rng.integers(2, 6))
        n = int(rng.integers(4, 10))
        hidden = (4, 3) if kind == "mlp" else ()
        spec = ModelSpec(kind, d, hidden, seed=int(rng.integers(1 << 31)))
        params = init_params(spec)
        for b in params.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        if kind == "svm":
            margins = (2.0 * y - 1.0) * raw_scores(params, spec, X)
            if np.abs(1.0 - margins).min() < 1e-2:
                continue
        if kind == "mlp" and _relu_kink_distance(params, X) < 1e-3:
            continue
        out.append((spec, params, X, y))
    return out


def _penalty_instances(rng, count):
    out = []
    while len(out) < count:
        d = int(rng.integers(3, 7))
        n = int(rng.integers(8, 16))
        X = rng.normal(size=(n, d))
        cols = rng.permutation(d)
        k = int(rng.integers(2, 4))
        groups = [tuple(int(c) for c in part) for part in np.array_split(cols, k)]
        related = RelatedFeatureSet(tuple(f"f{j}" for j in range(k)), tuple(groups))
        lam = rng.dirichlet(np.ones(k))
        yhat = rng.uniform(0.05, 0.95, size=n)
        centered = X - X.mean(axis=0)
        if np.abs(centered.T @ yhat).min() < 1e-4:
            continue  # too close to an absolute-value corner for differencing
        out.append((X, related, lam, yhat))
    return out


def test_criterion_3_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    worst = {}
    for kind in ("lr", "svm", "mlp"):
        errs = []
        for spec, params, X, y in _model_instances(kind, rng, 50):
            _, grad = loss_and_grad(params, spec, X, y)
            fd = _fd_param_grad(params, spec, X, y)
            errs.append(_rel_err(grad.arrays(), fd))
        worst[kind] = max(errs)

    h = 1e-6
    errs = []
    for X, related, lam, yhat in _penalty_instances(rng, 50):
        grad = penalty_grad_yhat(X, related, lam, yhat)
        fd = np.zeros_like(yhat)
        for i in range(yhat.size):
            bumped = yhat.copy()
            bumped[i] += h
            plus, _ = related_penalty(X, related, lam, bumped)
            bumped[i] -= 2.0 * h
            minus, _ = related_penalty(X, related, lam, bumped)
            fd[i] = (plus - minus) / (2.0 * h)
        errs.append(_rel_err([grad], [fd]))
    worst["penalty"] = max(errs)

    ok = all(err < 1e-4 for err in worst.values())
    detail = ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
    _finish(3, ok, f"worst relative error over 50 instances each: {detail}")


# ---------------------------------------------------------------------------
# 4. synthetic-bias benchmark: regularized run beats the plain one


def test_criterion_4_synthetic_bias_mitigation():
    t0 = time.perf_counter()
    raw = generate(SyntheticSpec(n=1500, seed=0))
    related = related_features(SyntheticSpec(n=1500, seed=0))
    (vanilla, _), (fair, _) = run_seeds(
        raw, related, [("vanilla", SYNTH_CFG), ("fairrf", SYNTH_CFG)], "lr", SEEDS)
    elapsed = time.perf_counter() - t0

    reduction = 1.0 - fair.delta_dp / vanilla.delta_dp
    acc_cost_pts = (vanilla.accuracy - fair.accuracy) * 100.0
    ok = reduction >= 0.40 and acc_cost_pts <= 3.0 and elapsed < 120.0
    _finish(
        4,
        ok,
        f"dDP {vanilla.delta_dp:.3f} -> {fair.delta_dp:.3f} "
        f"({reduction:.0%} reduction, need >=40%), accuracy cost "
        f"{acc_cost_pts:.1f} pts (allow <=3.0), 5 seeds, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. census income, MLP backbone: published-number reproduction


def test_criterion_5_census_mlp_reproduction(adult_data):
    raw, reason = adult_data
    if raw is None:
        _skip(5, reason)
    related = list(builtin_config("adult").related)
    cfg = TrainConfig(eta=0.3, beta=0.5)

    t0 = time.perf_counter()
    (vanilla, _), (fair, _) = run_seeds(
        raw, related, [("vanilla", cfg), ("fairrf", cfg)], "mlp", SEEDS)
    elapsed = time.perf_counter() - t0

    acc_ok = (
        abs(vanilla.accuracy - 0.856) <= 0.02
        and abs(fair.accuracy - 0.832) <= 0.03
    )
    eo_ratio = fair.delta_eo / max(vanilla.delta_eo, 1e-12)
    dp_ratio = fair.delta_dp / max(vanilla.delta_dp, 1e-12)
    ok = acc_ok and eo_ratio <= 0.70 and dp_ratio <= 0.85 and elapsed < 900.0
    _finish(
        5,
        ok,
        f"vanilla acc {vanilla.accuracy:.3f} (target 0.856+-0.02), "
        f"regularized acc {fair.accuracy:.3f} (target 0.832+-0.03), "
        f"dEO ratio {eo_ratio:.2f} (need <=0.70), dDP ratio {dp_ratio:.2f} "
        f"(need <=0.85), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. census income: stronger eta means fairer but less accurate


def test_criterion_6_census_eta_sweep_trend(adult_data):
    raw, reason = adult_data
    if raw is None:
        _skip(6, reason)
    related = list(builtin_config("adult").related)
    etas = (0.2, 0.25, 0.3, 0.35, 0.4)
    seeds = (0, 1, 2)

    t0 = time.perf_counter()
    dps, accs = [], []
    for eta in etas:
        cfg = TrainConfig(eta=eta, beta=0.5)
        ((report, _),) = run_seeds(raw, related, [("fairrf", cfg)], "mlp", seeds)
        dps.append(report.delta_dp)
        accs.append(report.accuracy)
    elapsed = time.perf_counter() - t0

    rho = float(spearmanr(etas, dps).correlation)
    ok = rho <= 0.0 and accs[-1] < accs[0]
    _finish(
        6,
        ok,
        f"Spearman(mean dDP, eta) = {rho:.2f} (need <=0), accuracy "
        f"{accs[0]:.3f} at eta=0.2 vs {accs[-1]:.3f} at eta=0.4 "
        f"(need strictly lower), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. learned weights favour group proxies over label echoes


def test_criterion_7_echo_feature_gets_smaller_weight():
    spec = SyntheticSpec(n=1500, label_echo=True, seed=0)
    raw = generate(spec)
    related = related_features(spec)

    wins = 0
    for (result,) in run_single(raw, related, [("fairrf", SYNTH_CFG)], "lr", SEEDS):
        lam = dict(zip(result.related.features, result.trace.final_lambda))
        if lam["echo"] < max(lam["proxy_a"], lam["proxy_b"]):
            wins += 1
    ok = wins >= 4
    _finish(
        7,
        ok,
        f"label-echo feature got strictly smaller weight than a group proxy "
        f"in {wins}/5 seeds (need >=4)",
    )


# ---------------------------------------------------------------------------
# 8. census income, LR backbone: the penalty transfers across models


def test_criterion_8_census_lr_backbone(adult_data):
    raw, reason = adult_data
    if raw is None:
        _skip(8, reason)
    related = list(builtin_config("adult").related)
    cfg = TrainConfig(eta=0.4, beta=0.4)

    t0 = time.perf_counter()
    (vanilla, _), (fair, _) = run_seeds(
        raw, related, [("vanilla", cfg), ("fairrf", cfg)], "lr", SEEDS)
    elapsed = time.perf_counter() - t0

    if vanilla.delta_eo <= 0.0:
        _finish(8, False, "plain LR shows no dEO gap to reduce")
    reduction = 1.0 - fair.delta_eo / vanilla.delta_eo
    acc_cost_pts = (vanilla.accuracy - fair.accuracy) * 100.0
    ok = reduction >= 0.40 and acc_cost_pts <= 3.0
    _finish(
        8,
        ok,
        f"dEO {vanilla.delta_eo:.3f} -> {fair.delta_eo:.3f} "
        f"({reduction:.0%} reduction, need >=40%), accuracy cost "
        f"{acc_cost_pts:.1f} pts (allow <=3.0), {elapsed:.0f}s",
    )
