import dataclasses

import numpy as np
import pytest

from tacd.fusion import (
    FusionWeights,
    PhaseErrorStats,
    fuse_skew,
    fusion_bias,
    fusion_cost,
    fusion_variance,
    pareto_beta,
)
from tacd.clock import ClockDynamics, build_state_space
from tacd.netcomm import GaussianBelief, GsfVbFilter, MixtureNoiseModel
from tacd.thermal import TempSkewModel

from conftest import rmse_by_name


@pytest.fixture
def model():
    return TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1)


def _cost_highprec(beta, lam, stats, model):
    # extended-precision copy of the scalarized objective; float64 cannot
    # resolve the minimizer location to 1e-9 (the cost is too flat there)
    ld = np.longdouble
    eps, gap = ld(stats.linear_variance), ld(stats.temp_gap)
    kap, s2, lam = ld(model.kappa), ld(model.sigma_T_sq), ld(lam)
    mu = kap * s2 * beta
    var = eps * (1 - beta) ** 2 + kap**2 * (4 * s2 * gap**2 + 2 * s2**2) * beta**2
    return lam * mu**2 + (1 - lam) * var


def golden_section_beta(lam, stats, model, iters=120):
    """Independent numerical minimizer of the scalarized cost over [0, 1]."""
    ld = np.longdouble
    phi = (np.sqrt(ld(5.0)) - 1) / 2
    a, b = ld(0.0), ld(1.0)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = _cost_highprec(c, lam, stats, model)
    fd = _cost_highprec(d, lam, stats, model)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _cost_highprec(c, lam, stats, model)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _cost_highprec(d, lam, stats, model)
    return float(0.5 * (a + b))


def test_fusion_bias_values(model):
    assert fusion_bias(0.0, model) == 0.0
    assert fusion_bias(1.0, model) == pytest.approx(4e-9, rel=1e-12, abs=0.0)
    assert fusion_bias(0.5, model) == pytest.approx(2e-9, rel=1e-12, abs=0.0)


def test_fusion_variance_values(model):
    stats = PhaseErrorStats(linear_variance=1e-14, temp_gap=10.0)
    assert fusion_variance(1.0, 0.0, stats, model) == 1e-14
    at_vertex = PhaseErrorStats(linear_variance=1e-14, temp_gap=0.0)
    assert fusion_variance(0.0, 1.0, at_vertex, model) == pytest.approx(
        2 * model.kappa**2 * 0.1**2, rel=1e-12, abs=0.0
    )
    assert fusion_variance(0.5, 0.5, stats, model) == pytest.approx(1.8508e-14, rel=1e-4, abs=0.0)


def test_pareto_pure_bias_objective(model):
    stats = PhaseErrorStats(linear_variance=1e-12, temp_gap=5.0)
    w = pareto_beta(stats, model, lam=1.0)
    assert w.beta == 0.0 and w.alpha == 1.0


def test_pareto_reference_value(model):
    stats = PhaseErrorStats(linear_variance=1e-14, temp_gap=10.0)
    w = pareto_beta(stats, model, lam=0.0)
    assert w.beta == pytest.approx(0.13507672357899286, rel=1e-12, abs=0.0)
    assert w.beta == pytest.approx(1e-14 / (6.4032e-14 + 1e-14), rel=1e-4, abs=0.0)


def test_pareto_matches_golden_section(model):
    stats = PhaseErrorStats(linear_variance=1e-14, temp_gap=10.0)
    for lam in (0.0, 0.3, 0.5, 0.9):
        w = pareto_beta(stats, model, lam)
        assert abs(w.beta - golden_section_beta(lam, stats, model)) < 1e-9


def test_pareto_degenerate_denominator():
    flat = TempSkewModel(kappa=0.0, T0=25.0, theta0=0.0, sigma_T_sq=0.0)
    stats = PhaseErrorStats(linear_variance=1e-14, temp_gap=0.0)
    w = pareto_beta(stats, flat, lam=1.0)
    assert w.beta == 0.0 and w.degenerate


def test_pareto_boundary_beta_one():
    # lambda = 0 with a flat thermal error surface drives everything thermal
    flat = TempSkewModel(kappa=0.0, T0=25.0, theta0=0.0, sigma_T_sq=0.0)
    stats = PhaseErrorStats(linear_variance=1e-14, temp_gap=0.0)
    w = pareto_beta(stats, flat, lam=0.0)
    assert w.beta == 1.0 and not w.degenerate


def test_fuse_skew_values():
    w = FusionWeights(alpha=1.0, beta=0.0, lam=0.5)
    assert fuse_skew(1e-6, 5e-6, w) == 1e-6
    w = FusionWeights(alpha=0.3, beta=0.7, lam=0.5)
    assert fuse_skew(2e-6, 2e-6, w) == pytest.approx(2e-6, rel=1e-15, abs=0.0)
    w = FusionWeights(alpha=0.8, beta=0.2, lam=0.5)
    assert fuse_skew(1e-6, 2e-6, w) == pytest.approx(1.2e-6, rel=1e-12, abs=0.0)


def test_condition_on_fused_identity():
    belief = GaussianBelief(np.array([1e-6, 2e-6]), np.diag([1e-12, 1e-12]))
    ss = build_state_space(ClockDynamics(m=1.0, sigma_u_sq=1e-18, tau=1.0))
    filt = GsfVbFilter(ss, MixtureNoiseModel.from_point_estimates([1.0], [1e-6]), belief)
    filt.condition_on_skew(1e-6)
    same = filt.belief
    assert np.array_equal(same.mean, belief.mean)
    assert np.array_equal(same.cov, belief.cov)
    filt.condition_on_skew(4e-6)
    moved = filt.belief
    assert moved.mean[0] == 4e-6 and moved.mean[1] == 2e-6
    assert np.array_equal(moved.cov, belief.cov)


def _random_tuples(n, rng):
    eps = 10.0 ** rng.uniform(-16, -10, n)
    kappa = 10.0 ** rng.uniform(-9, -7, n)
    s2 = 10.0 ** rng.uniform(-3, 0.5, n)
    gap = rng.uniform(-40.0, 40.0, n)
    lam = rng.uniform(0.0, 1.0, n)
    lam[rng.random(n) < 0.05] = 1.0  # exercise the beta = 0 boundary
    lam[rng.random(n) < 0.05] = 0.0
    return eps, kappa, s2, gap, lam


def _closed_form_beta(eps, kappa, s2, gap, lam):
    denom = lam * kappa**2 * s2**2 + (1 - lam) * (
        kappa**2 * (4 * gap**2 * s2 + 2 * s2**2) + eps
    )
    return np.clip((1 - lam) * eps / denom, 0.0, 1.0)


def _vector_cost(beta, eps, kappa, s2, gap, lam):
    mu = kappa * s2 * beta
    var = eps * (1 - beta) ** 2 + kappa**2 * (4 * s2 * gap**2 + 2 * s2**2) * beta**2
    return lam * mu**2 + (1 - lam) * var


def _vector_golden_section(eps, kappa, s2, gap, lam, iters=120):
    # extended precision: the float64 objective is too flat near the optimum
    # to localize it to 1e-9
    eps, kappa, s2 = eps.astype(np.longdouble), kappa.astype(np.longdouble), s2.astype(np.longdouble)
    gap, lam = gap.astype(np.longdouble), lam.astype(np.longdouble)
    phi = (np.sqrt(np.longdouble(5.0)) - 1) / 2
    a = np.zeros_like(eps)
    b = np.ones_like(eps)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = _vector_cost(c, eps, kappa, s2, gap, lam)
    fd = _vector_cost(d, eps, kappa, s2, gap, lam)
    for _ in range(iters):
        take = fc < fd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc = _vector_cost(c, eps, kappa, s2, gap, lam)
        fd = _vector_cost(d, eps, kappa, s2, gap, lam)
    return (0.5 * (a + b)).astype(float)


def test_closed_form_optimality_randomized():
    rng = np.random.default_rng(23)
    eps, kappa, s2, gap, lam = _random_tuples(10**4, rng)
    beta = _closed_form_beta(eps, kappa, s2, gap, lam)
    beta_num = _vector_golden_section(eps, kappa, s2, gap, lam)
    interior = (beta > 1e-6) & (beta < 1.0 - 1e-6)
    assert np.max(np.abs(beta[interior] - beta_num[interior])) < 1e-9
    # boundary cases agree with the clamp
    assert np.all(np.abs(beta[~interior] - beta_num[~interior]) < 1e-6)
    # spot check the closed form against the library op itself
    for i in rng.integers(0, 10**4, 50):
        model_i = TempSkewModel(kappa=kappa[i], T0=25.0, theta0=0.0, sigma_T_sq=s2[i])
        stats_i = PhaseErrorStats(linear_variance=eps[i], temp_gap=gap[i])
        assert pareto_beta(stats_i, model_i, lam[i]).beta == pytest.approx(beta[i], rel=1e-12, abs=0.0)


def test_objective_never_worse_than_endpoints():
    rng = np.random.default_rng(24)
    eps, kappa, s2, gap, lam = _random_tuples(10**4, rng)
    beta = _closed_form_beta(eps, kappa, s2, gap, lam)
    cost_star = _vector_cost(beta, eps, kappa, s2, gap, lam)
    cost0 = _vector_cost(np.zeros_like(beta), eps, kappa, s2, gap, lam)
    cost1 = _vector_cost(np.ones_like(beta), eps, kappa, s2, gap, lam)
    assert np.all(cost_star <= np.minimum(cost0, cost1) * (1 + 1e-12))


def test_beta_monotone_in_linear_variance(model):
    rng = np.random.default_rng(25)
    for _ in range(200):
        gap = rng.uniform(-30, 30)
        lam = rng.uniform(0, 1)
        eps_grid = np.sort(10.0 ** rng.uniform(-16, -10, 8))
        betas = [
            pareto_beta(PhaseErrorStats(e, gap), model, lam).beta for e in eps_grid
        ]
        assert np.all(np.diff(betas) >= -1e-15)


def test_fused_error_second_moment_monte_carlo(model):
    # synthetic independent phase errors reproduce the closed-form second moment
    rng = np.random.default_rng(26)
    n = 10**6
    for alpha, gap, eps in ((0.7, 10.0, 1e-13), (0.3, 3.0, 4e-14)):
        beta = 1.0 - alpha
        e_lin = rng.standard_normal(n) * np.sqrt(eps)
        xi = rng.standard_normal(n) * np.sqrt(model.sigma_T_sq)
        e_th = model.kappa * (2.0 * gap * xi + xi**2)
        fused = alpha * e_lin + beta * e_th
        closed = eps * alpha**2 + model.kappa**2 * (
            4 * model.sigma_T_sq * gap**2 + 3 * model.sigma_T_sq**2
        ) * beta**2
        assert np.mean(fused**2) == pytest.approx(closed, rel=0.05, abs=0.0)


@pytest.mark.slow
def test_feedback_reduces_offset_rmse():
    # A/B comparison on the thermally-swinging case: fused-skew feedback on/off
    from tacd.config import FusionSettings, load_config
    from tacd.runner import evaluate_rmse, run_case

    cfg = load_config("configs/case2.json").with_overrides(runs=60, estimators=("tacd",))
    on = rmse_by_name(evaluate_rmse(run_case(cfg), 10))["tacd"]
    off_cfg = dataclasses.replace(cfg, fusion=FusionSettings(lam=0.5, feedback=False))
    off = rmse_by_name(evaluate_rmse(run_case(off_cfg), 10))["tacd"]
    assert on[1] < off[1]
