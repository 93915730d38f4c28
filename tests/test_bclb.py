import numpy as np
import pytest

from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.clock import ClockDynamics

from conftest import constant_oracle, information


def test_linear_memoryless_decoupling():
    dyn = ClockDynamics(m=0.0, sigma_u_sq=1e-10, tau=1.0)
    j = information(dyn, [1.0], [5e-6], 1e5, 1)[0][1]
    assert j == pytest.approx(1e10 + 1.0 / 25e-12, rel=1e-12)


def test_linear_equals_information_filter_form(dyn):
    # single component: recursion matches J = tau^2/L^2 + 1/(s + m^2/J_prev)
    lam = np.array([5e-6])
    b = np.array([1.0])
    j = information(dyn, b, lam, 2e5, 201)[0]
    for k in range(1, 201):
        j_ref = dyn.tau**2 / lam[0] ** 2 + 1.0 / (dyn.sigma_u_sq + dyn.m**2 / j[k - 1])
        assert j[k] == pytest.approx(j_ref, rel=1e-12)
    # fixed point reached
    assert j[201] == pytest.approx(j[200], rel=1e-12)


def test_linear_mixture_data_term(dyn):
    b = np.array([0.4, 0.3, 0.3])
    lam = np.array([5e-6, 3e-6, 5e-6])
    expected_data = float(np.sum(b / lam**3) / np.sum(b / lam))
    j_prev = 2e5
    j = information(dyn, b, lam, j_prev, 1)[0][1]
    prior_part = 1.0 / dyn.sigma_u_sq - (dyn.m / dyn.sigma_u_sq) ** 2 / (j_prev + dyn.m**2 / dyn.sigma_u_sq)
    assert j == pytest.approx(prior_part + expected_data, rel=1e-12)


def test_linear_rejects_bad_inputs():
    dyn = ClockDynamics(m=1.0, sigma_u_sq=1e-10, tau=1.0)
    with pytest.raises(ValueError, match="P0"):
        bclb_trajectory(constant_oracle([1.0], [5e-6], 2), dyn, None, 0.0)
    with pytest.raises(ValueError, match="stddevs"):
        information(dyn, [1.0], [0.0], 1e5, 1)


@pytest.mark.parametrize("weights, stddevs, match", [
    ([np.nan, 1.0], [5e-6, 3e-6], "simplex"),
    ([np.inf, 0.0], [5e-6, 3e-6], "simplex"),
    ([0.5, 0.5], [5e-6, np.nan], "stddevs"),
    ([0.5, 0.5], [5e-6, np.inf], "stddevs"),
], ids=["nan-weight", "inf-weight", "nan-stddev", "inf-stddev"])
def test_trajectory_rejects_a_nan_or_infinite_mixture(dyn, weights, stddevs, match):
    # each would give NaN bounds from period 1 on
    with pytest.raises(ValueError, match=match):
        bclb_trajectory(constant_oracle(weights, stddevs, 3), dyn, 0.5, 5e-6)


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


def test_trajectory_monotone_convergence_single_component(dyn):
    h = 300
    oracle = OracleNoiseTruth(weights=np.ones((h, 1)), stddevs=np.full((h, 1), 5e-6))
    l, f = bclb_trajectory(oracle, dyn, 0.5, 5e-6)
    assert np.all(np.diff(l) <= 1e-18)  # bounds shrink toward the fixed point
    assert np.all(np.diff(f) <= 1e-18)
    assert l[-1] == pytest.approx(l[-2], rel=1e-9, abs=0.0)
    assert f[-1] == pytest.approx(f[-2], rel=1e-9, abs=0.0)


def test_fixed_point_matches_scalar_kalman_riccati(dyn):
    # steady-state posterior variance of the matched scalar filter
    lam = 5e-6
    p = 5e-6
    for _ in range(2000):
        p_pred = dyn.m**2 * p + dyn.sigma_u_sq
        s = dyn.tau**2 * p_pred + lam**2
        k = p_pred * dyn.tau / s
        p = (1.0 - k * dyn.tau) * p_pred
    bound = bclb_trajectory(constant_oracle([1.0], [lam], 2001), dyn, None, 5e-6)[0]
    assert bound[-1] == pytest.approx(p, rel=1e-10, abs=0.0)
