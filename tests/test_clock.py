import numpy as np
import pytest

from tacd.clock import ClockDynamics, build_state_space
from tacd.scenario import LinkConfig, PdvProfile, ScenarioConfig, TruthOptions, generate_scenario
from tacd.thermal import TempSkewModel

from conftest import M_GM, SIGMA_U_SQ, constant_thermal


def _truth(dyn, skew0, offset0, horizon=2, process_noise_sq=0.0, seed=0):
    """Skew and offset of a generated run without thermal coupling: the skew
    is the Gauss-Markov residual with coefficient dyn.m, the offset
    integrates it."""
    cfg = ScenarioConfig(
        tau=dyn.tau,
        horizon=horizon,
        link=LinkConfig(5e-6, 1e-6),
        pdv=PdvProfile(initial_stddevs=(1e-6,), initial_weights=(1.0,)),
        thermal=constant_thermal(horizon),
        temp_model=TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1),
        truth=TruthOptions(initial_offset=offset0, initial_skew_residual=skew0,
                           process_noise_sq=process_noise_sq, thermal_coupling=False),
        gm_coefficient=dyn.m,
    )
    data = generate_scenario(cfg, np.random.default_rng(seed))
    return data.skew_true, data.offset_true


def test_advance_zero_fixed_point():
    dyn = ClockDynamics(m=0.5, sigma_u_sq=1.0, tau=1.0)
    skew, offset = _truth(dyn, 0.0, 0.0)
    assert skew[1] == 0.0 and offset[1] == 0.0


def test_advance_identity_transfer():
    dyn = ClockDynamics(m=1.0, sigma_u_sq=1.0, tau=1.0)
    skew, offset = _truth(dyn, 1e-6, 0.0)
    assert skew[1] == 1e-6
    assert offset[1] == 1e-6


def test_advance_reference_parameters():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    skew, offset = _truth(dyn, 3e-7, 2e-6)
    # abs=0: approx's default absolute tolerance of 1e-12 exceeds these values
    assert skew[1] == pytest.approx(3e-7 * M_GM, rel=1e-15, abs=0.0)
    assert offset[1] == pytest.approx(2e-6 + 1.0 * skew[1], rel=1e-15, abs=0.0)


def test_advance_noise_free_offset_accumulation():
    dyn = ClockDynamics(m=1.0, sigma_u_sq=1e-12, tau=0.5)
    _, offset = _truth(dyn, 2e-7, 0.0, horizon=101)
    assert offset[100] == pytest.approx(100 * dyn.tau * 2e-7, rel=1e-12, abs=0.0)


def test_advance_reproducible_under_recorded_noise():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    def run():
        return _truth(dyn, 1e-7, 1e-6, horizon=51, process_noise_sq=1e-14, seed=3)
    (skew_a, offset_a), (skew_b, offset_b) = run(), run()
    assert np.any(skew_a[1:] != M_GM * skew_a[:-1])  # the noise enters
    assert np.array_equal(skew_a, skew_b) and np.array_equal(offset_a, offset_b)


def test_state_space_unit_parameters():
    ss = build_state_space(ClockDynamics(m=1.0, sigma_u_sq=1.0, tau=1.0))
    assert np.array_equal(ss.A, [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(ss.Q_v, [[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(ss.H, np.diag([1.0, 2.0]))


def test_state_space_memoryless_skew():
    ss = build_state_space(ClockDynamics(m=0.0, sigma_u_sq=1.0, tau=1.0))
    assert np.array_equal(ss.A, [[0.0, 0.0], [0.0, 1.0]])


def test_state_space_reference_parameters():
    ss = build_state_space(ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0))
    assert ss.A[0, 0] == M_GM and ss.A[1, 0] == M_GM * 1.0 and ss.A[1, 1] == 1.0
    assert ss.Q_v[0, 0] == SIGMA_U_SQ
    assert ss.Q_v[0, 1] == ss.Q_v[1, 0] == SIGMA_U_SQ * 1.0
    assert ss.Q_v[1, 1] == SIGMA_U_SQ * 1.0
    assert np.array_equal(ss.H, np.diag([1.0, 2.0]))


def test_invalid_dynamics_rejected():
    with pytest.raises(ValueError):
        ClockDynamics(m=1.0, sigma_u_sq=0.0, tau=1.0)
    with pytest.raises(ValueError):
        ClockDynamics(m=1.0, sigma_u_sq=1.0, tau=0.0)
    with pytest.raises(ValueError):
        ClockDynamics(m=1.5, sigma_u_sq=1.0, tau=1.0)
    with pytest.raises(ValueError, match="skew"):
        _truth(ClockDynamics(m=1.0, sigma_u_sq=1.0, tau=1.0), 1.5, 0.0)


def test_process_noise_psd_and_rank_deficient():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dyn = ClockDynamics(
            m=rng.uniform(0.0, 1.0),
            sigma_u_sq=10.0 ** rng.uniform(-14, -6),
            tau=10.0 ** rng.uniform(-2, 2),
        )
        q = build_state_space(dyn).Q_v
        vals = np.linalg.eigvalsh(q)
        assert vals[0] >= -1e-12 * abs(q).max()
        assert abs(np.linalg.det(q)) <= 1e-12 * (q[0, 0] * q[1, 1] + q[0, 1] ** 2)
