import numpy as np
import pytest

from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.clock import ClockDynamics
from tacd.scenario import pdv_params_table

from conftest import M_GM, SIGMA_U_SQ, constant_oracle, information, study_pdv_profile


def test_linear_memoryless_decoupling():
    dyn = ClockDynamics(m=0.0, sigma_u_sq=1e-10, tau=1.0)
    j = information(dyn, [1.0], [5e-6], 1e5, 1)[0][1]
    assert j == pytest.approx(1e10 + 1.0 / 25e-12, rel=1e-12)


def test_linear_equals_information_filter_form():
    # single component: recursion matches J = tau^2/L^2 + 1/(s + m^2/J_prev)
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    lam = np.array([5e-6])
    b = np.array([1.0])
    j = information(dyn, b, lam, 2e5, 201)[0]
    for k in range(1, 201):
        j_ref = dyn.tau**2 / lam[0] ** 2 + 1.0 / (dyn.sigma_u_sq + dyn.m**2 / j[k - 1])
        assert j[k] == pytest.approx(j_ref, rel=1e-12)
    # fixed point reached
    assert j[201] == pytest.approx(j[200], rel=1e-12)


def test_linear_mixture_data_term():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    b = np.array([0.4, 0.3, 0.3])
    lam = np.array([5e-6, 3e-6, 5e-6])
    expected_data = float(np.sum(b / lam**3) / np.sum(b / lam))
    j_prev = 2e5
    j = information(dyn, b, lam, j_prev, 1)[0][1]
    prior_part = 1.0 / SIGMA_U_SQ - (M_GM / SIGMA_U_SQ) ** 2 / (j_prev + M_GM**2 / SIGMA_U_SQ)
    assert j == pytest.approx(prior_part + expected_data, rel=1e-12)


def test_linear_rejects_bad_inputs():
    dyn = ClockDynamics(m=1.0, sigma_u_sq=1e-10, tau=1.0)
    with pytest.raises(ValueError, match="P0"):
        bclb_trajectory(constant_oracle([1.0], [5e-6], 2), dyn, None, 0.0)
    with pytest.raises(ValueError, match="stddevs"):
        information(dyn, [1.0], [0.0], 1e5, 1)


def test_fusion_reduces_to_linear_at_alpha_one():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    b = np.array([0.4, 0.3, 0.3])
    lam = np.array([5e-6, 3e-6, 5e-6])
    j_lin, j_fus = information(dyn, b, lam, 3e10, 1, 1.0)
    assert j_fus[1] == pytest.approx(j_lin[1], rel=1e-12)


def test_fusion_half_alpha_memoryless():
    dyn = ClockDynamics(m=0.0, sigma_u_sq=1e-10, tau=1.0)
    j_fus = information(dyn, [1.0], [5e-6], 1e5, 1, 0.5)[1]
    assert j_fus[1] == pytest.approx(4.0 / 1e-10 + 4.0 / 25e-12, rel=1e-12)


def test_fusion_rejects_zero_alpha():
    dyn = ClockDynamics(m=1.0, sigma_u_sq=1e-10, tau=1.0)
    with pytest.raises(ValueError, match="alpha"):
        information(dyn, [1.0], [5e-6], 1e5, 1, 0.0)


def test_trajectory_zero_horizon():
    oracle = OracleNoiseTruth(weights=np.ones((0, 1)), stddevs=np.ones((0, 1)))
    dyn = ClockDynamics(m=1.0, sigma_u_sq=1e-10, tau=1.0)
    l, f = bclb_trajectory(oracle, dyn, 0.5, 5e-6)
    assert l.size == 0 and f.size == 0


def test_trajectory_monotone_convergence_single_component():
    h = 300
    oracle = OracleNoiseTruth(weights=np.ones((h, 1)), stddevs=np.full((h, 1), 5e-6))
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    l, f = bclb_trajectory(oracle, dyn, 0.5, 5e-6)
    assert np.all(np.diff(l) <= 1e-18)  # bounds shrink toward the fixed point
    assert np.all(np.diff(f) <= 1e-18)
    assert l[-1] == pytest.approx(l[-2], rel=1e-9)
    assert f[-1] == pytest.approx(f[-2], rel=1e-9)


def test_trajectory_dominance_nonstationary():
    h = 75
    weights, stddevs = pdv_params_table(study_pdv_profile(), h)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    rng = np.random.default_rng(31)
    for alpha in rng.uniform(0.05, 0.999, 20):
        l, f = bclb_trajectory(oracle, dyn, alpha, 5e-6)
        assert np.all(f[1:] <= l[1:] * (1 + 1e-12))
        assert np.all(f > 0) and np.all(l > 0)


def test_fixed_point_matches_scalar_kalman_riccati():
    # steady-state posterior variance of the matched scalar filter
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    lam = 5e-6
    p = 5e-6
    for _ in range(2000):
        p_pred = dyn.m**2 * p + dyn.sigma_u_sq
        s = dyn.tau**2 * p_pred + lam**2
        k = p_pred * dyn.tau / s
        p = (1.0 - k * dyn.tau) * p_pred
    bound = bclb_trajectory(constant_oracle([1.0], [lam], 2001), dyn, None, 5e-6)[0]
    assert bound[-1] == pytest.approx(p, rel=1e-10)


@pytest.mark.slow
def test_statistical_bound_holds():
    # matched scalar Kalman filter on the exact single-component model:
    # empirical steady-state MSE cannot beat the bound by more than MC noise
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    lam = 5e-6
    runs, horizon = 1000, 150
    rng = np.random.default_rng(32)
    theta = np.full(runs, 3e-7)
    p0 = 5e-6
    est = np.full(runs, 3e-7)
    p = p0
    mse_window = []
    for k in range(1, horizon):
        theta = dyn.m * theta + rng.standard_normal(runs) * np.sqrt(dyn.sigma_u_sq)
        z = dyn.tau * theta + rng.standard_normal(runs) * lam
        p_pred = dyn.m**2 * p + dyn.sigma_u_sq
        s = dyn.tau**2 * p_pred + lam**2
        gain = p_pred * dyn.tau / s
        est = dyn.m * est + gain * (z - dyn.tau * dyn.m * est)
        p = (1.0 - gain * dyn.tau) * p_pred
        if k >= horizon - 10:
            mse_window.append(np.mean((est - theta) ** 2))
    bound = bclb_trajectory(constant_oracle([1.0], [lam], horizon), dyn, None, p0)[0][-1]
    mse = float(np.mean(mse_window))
    stderr = float(np.std(mse_window, ddof=1) / np.sqrt(len(mse_window)))
    assert mse >= bound - 3 * max(stderr, mse * np.sqrt(2.0 / runs))
