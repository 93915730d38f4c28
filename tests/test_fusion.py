import dataclasses

import numpy as np
import pytest

from tacd.fusion import fuse_skew, fusion_variance, pareto_beta, thermal_variance
from tacd.clock import ClockDynamics, build_state_space
from tacd.netcomm import GaussianBelief, GsfVbFilter, MixtureNoiseModel
from tacd.thermal import TempSkewModel

from conftest import config_path, rmse_by_name


@pytest.fixture
def model():
    return TempSkewModel()


def test_fusion_variance_values(model):
    assert fusion_variance(0.0, 1e-14, 10.0, model) == 1e-14
    assert fusion_variance(1.0, 1e-14, 0.0, model) == pytest.approx(
        2 * model.kappa**2 * 0.1**2, rel=1e-12, abs=0.0
    )
    assert fusion_variance(0.5, 1e-14, 10.0, model) == pytest.approx(1.8508e-14, rel=1e-4, abs=0.0)


def test_pareto_pure_bias_objective(model):
    assert pareto_beta(1e-12, thermal_variance(5.0, model), model, lam=1.0) == 0.0


def test_pareto_reference_value(model):
    beta = pareto_beta(1e-14, thermal_variance(10.0, model), model, lam=0.0)
    assert beta == pytest.approx(0.13507672357899286, rel=1e-12, abs=0.0)
    assert beta == pytest.approx(1e-14 / (6.4032e-14 + 1e-14), rel=1e-4, abs=0.0)


def test_pareto_degenerate_denominator():
    flat = TempSkewModel(kappa=0.0, sigma_T_sq=0.0)
    assert pareto_beta(1e-14, thermal_variance(0.0, flat), flat, lam=1.0) == 0.0


def test_pareto_boundary_beta_one():
    # lambda = 0 with a flat thermal error surface drives everything thermal
    flat = TempSkewModel(kappa=0.0, sigma_T_sq=0.0)
    assert pareto_beta(1e-14, thermal_variance(0.0, flat), flat, lam=0.0) == 1.0


def test_pareto_beta_lies_in_unit_interval_without_a_clamp():
    # every term of the denominator is non-negative, so the computed ratio
    # stays in [0, 1] over extreme magnitudes, lambda at both ends included
    rng = np.random.default_rng(27)
    for lam in (0.0, 1e-300, 0.3, 1.0 - 1e-16, 1.0):
        for _ in range(50):
            eps = 10.0 ** rng.uniform(-320, 300, 64)
            gap = rng.uniform(-1.0, 1.0, 64) * 10.0 ** rng.uniform(-300, 50, 64)
            model = TempSkewModel(kappa=10.0 ** rng.uniform(-100, 50), sigma_T_sq=10.0 ** rng.uniform(-100, 50))
            with np.errstate(under="ignore"):
                beta = pareto_beta(eps, thermal_variance(gap, model), model, lam)
            assert np.all((beta >= 0.0) & (beta <= 1.0))


def test_pareto_rejects_lambda_outside_unit_interval(model):
    for lam in (-0.1, 1.0 + 1e-12, np.nan):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\]"):
            pareto_beta(1e-14, thermal_variance(1.0, model), model, lam)


def test_pareto_rejects_non_positive_linear_variance(model):
    # checked before any NaN: a NaN beside a zero still names the variance
    for eps in (0.0, -1e-14, -0.0, np.array([1e-14, 0.0]), np.array([np.nan, -1.0])):
        with pytest.raises(ValueError, match="linear_variance must be > 0"):
            pareto_beta(eps, thermal_variance(np.ones(np.shape(eps)), model), model, 0.5)


def test_pareto_rejects_a_nan_beta(model):
    # NaN inputs, and an infinite variance (inf / inf), have no place to clamp to
    for eps, gap, lam in ((np.nan, 1.0, 0.5), (1e-14, np.nan, 0.5), (1e-14, np.nan, 1.0), (np.inf, 1.0, 0.5),
                          (np.array([1e-14, np.nan]), np.array([1.0, 2.0]), 0.0)):
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            pareto_beta(eps, thermal_variance(gap, model), model, lam)


def _pareto_beta_on_the_gap(linear_variance, temp_gap, model, lam):
    """pareto_beta as it was before it took the thermal variance: the closed
    form on the temperature gap, with its operation order and its errors."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    eps = linear_variance
    if np.count_nonzero(np.less_equal(eps, 0.0)):
        raise ValueError("linear_variance must be > 0")
    s2 = model.sigma_T_sq
    k2 = model.kappa**2
    denom = lam * k2 * s2 * s2 + (1.0 - lam) * (
        k2 * (4.0 * temp_gap**2 * s2 + 2.0 * s2 * s2) + eps
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.divide((1.0 - lam) * eps, denom)
    if np.count_nonzero(np.isnan(beta)):
        beta = np.where(denom == 0.0, 0.0, beta)
        if np.isnan(beta).any():
            raise ValueError("beta must lie in [0, 1]")
    return beta


def _outcome(fn, *args):
    """fn's result as its bits, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(*args), dtype=float).view(np.int64).tolist()
    except (ValueError, OverflowError) as err:
        return repr(err)


def test_pareto_beta_on_the_thermal_variance_is_the_closed_form_bit_for_bit():
    # 15,000 random inputs over extreme magnitudes, zero and infinite gaps,
    # degenerate models and lambda at both ends give the same bits as the
    # closed form on the gap, and every input that raised still raises
    rng = np.random.default_rng(29)
    def on_thermal_var(eps, gap, model, lam):
        return pareto_beta(eps, thermal_variance(gap, model), model, lam)

    cases = []
    for lam in (0.0, 1e-300, 0.3, 0.5, 1.0 - 1e-16, 1.0):
        for _ in range(25):
            eps = 10.0 ** rng.uniform(-320, 300, 100)
            gap = rng.uniform(-1.0, 1.0, 100) * 10.0 ** rng.uniform(-300, 50, 100)
            gap[:2] = 0.0, -1e-320
            model = TempSkewModel(kappa=10.0 ** rng.uniform(-100, 50), sigma_T_sq=10.0 ** rng.uniform(-100, 50))
            cases.append((eps, gap, model, lam))
    flat = TempSkewModel(kappa=0.0, sigma_T_sq=0.0)
    model = TempSkewModel()
    cases += [(1e-14, 0.0, flat, 1.0), (1e-14, 0.0, flat, 0.0), (1e-14, 10.0, model, 0.0), (1e-14, np.inf, model, 0.5)]
    # a gap whose square overflows (the closed form raised on a Python float;
    # see test_thermal_variance_of_an_overflowing_gap_is_inf)
    cases += [(5e-324, np.float64(1e300), model, 0.5)]
    # the three errors: lambda outside [0, 1], a non-positive variance, a NaN beta
    errors = [(1e-14, 1.0, model, lam) for lam in (-0.1, 1.0 + 1e-12, np.nan)]
    errors += [(eps, 1.0, model, 0.5) for eps in (0.0, -0.0, -1e-14, np.array([1e-14, 0.0]), np.array([np.nan, -1.0]))]
    errors += [(np.nan, 1.0, model, 0.5), (1e-14, np.nan, model, 0.5), (1e-14, np.nan, model, 1.0),
               (1e-14, np.inf, model, 1.0), (np.inf, 1.0, model, 0.5), (np.array([1e-14, np.nan]), np.array([1.0, 2.0]), model, 0.0)]
    assert sum(np.size(eps) for eps, *_ in cases) >= 15000
    for i, args in enumerate(cases + errors):
        got = _outcome(on_thermal_var, *args)
        assert got == _outcome(_pareto_beta_on_the_gap, *args), args
        assert isinstance(got, str) == (i >= len(cases)), args


def test_thermal_variance_of_an_overflowing_gap_is_inf(model):
    # a gap whose square overflows gives inf whether it is a numpy scalar or
    # a Python float, and the thermal phase then gets no weight
    for gap in (np.float64(1e300), 1e300):
        with np.errstate(over="ignore"):
            var = thermal_variance(gap, model)
        assert var == np.inf
        assert pareto_beta(5e-324, var, model, 0.5) == 0.0


def test_poisoned_exchange_still_stops_the_batch(monkeypatch):
    # one exchange with t2 += 1e150 (run 0, k = 39) wrecks run 0's network
    # phase: its posterior variance turns NaN and fusion refuses it for the
    # whole 4-run batch (no outlier gate yet)
    import tacd.runner as runner
    from tacd.config import load_config

    generate = runner.generate_scenario

    def poisoned(*args, **kwargs):
        data = generate(*args, **kwargs)
        data.exchanges.t2[0, 39] += 1e150
        return data

    monkeypatch.setattr(runner, "generate_scenario", poisoned)
    cfg = load_config(config_path("case1")).with_overrides(runs=4)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
        runner.simulate_run(cfg, range(4))


def test_fuse_skew_values():
    assert fuse_skew(1e-6, 5e-6, 0.0) == 1e-6
    assert fuse_skew(2e-6, 2e-6, 0.7) == pytest.approx(2e-6, rel=1e-15, abs=0.0)
    assert fuse_skew(1e-6, 2e-6, 0.2) == pytest.approx(1.2e-6, rel=1e-12, abs=0.0)


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


def test_beta_monotone_in_linear_variance(model):
    rng = np.random.default_rng(25)
    for _ in range(200):
        gap = rng.uniform(-30, 30)
        lam = rng.uniform(0, 1)
        eps_grid = np.sort(10.0 ** rng.uniform(-16, -10, 8))
        betas = pareto_beta(eps_grid, thermal_variance(gap, model), model, lam)
        assert np.all(np.diff(betas) >= -1e-15)


def test_fused_error_second_moment_monte_carlo(model):
    # synthetic independent phase errors reproduce the fused error's second
    # moment: fusion_variance plus the squared thermal bias
    rng = np.random.default_rng(26)
    n = 10**6
    points = ((0.7, 10.0, 1e-13), (0.3, 3.0, 4e-14))
    for alpha, gap, eps in points:
        beta = 1.0 - alpha
        e_lin = rng.standard_normal(n) * np.sqrt(eps)
        xi = rng.standard_normal(n) * np.sqrt(model.sigma_T_sq)
        e_th = model.kappa * (2.0 * gap * xi + xi**2)
        fused = alpha * e_lin + beta * e_th
        closed = fusion_variance(beta, eps, gap, model) + (model.kappa * model.sigma_T_sq * beta) ** 2
        assert np.mean(fused**2) == pytest.approx(closed, rel=0.05, abs=0.0)
    # on (R,) arrays it is the scalar form element by element
    alpha, gap, eps = (np.array(col) for col in zip(*points))
    batched = fusion_variance(1.0 - alpha, eps, gap, model)
    assert np.array_equal(batched, [fusion_variance(1.0 - a, e, g, model) for a, g, e in points])


@pytest.mark.slow
def test_feedback_reduces_offset_rmse():
    # A/B comparison on the thermally-swinging case: fused-skew feedback on/off
    from tacd.config import FusionSettings, load_config
    from tacd.runner import evaluate_rmse, run_case

    cfg = load_config(config_path("case2")).with_overrides(runs=60, estimators=("tacd",))
    on = rmse_by_name(evaluate_rmse(run_case(cfg), 10))["tacd"]
    off_cfg = dataclasses.replace(cfg, fusion=FusionSettings(lam=0.5, feedback=False))
    off = rmse_by_name(evaluate_rmse(run_case(off_cfg), 10))["tacd"]
    assert on[1] < off[1]
