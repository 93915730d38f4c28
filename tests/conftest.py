import numpy as np
import pytest

from tacd import runner
from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.clock import ClockDynamics, build_state_space
from tacd.netcomm import build_measurement
from tacd.runner import Trajectories
from tacd.scenario import (
    ExchangeBatch,
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    _exchange_times,
    generate_scenario,
)
from tacd.thermal import TempSkewModel

# Reference oscillator constants used across the suite
M_GM = (1.0 - 2e-6) ** (1.0 / 30.0)
SIGMA_U_SQ = (1.0 - M_GM**2) * 1e-3


def set_runs_per_part(mp: pytest.MonkeyPatch, runs: int) -> None:
    """Set the fewest runs of a pool slice where the bound run_case reads it
    (a mutation check binds a stand-in module's run_case)."""
    mp.setitem(runner.run_case.__globals__, "_RUNS_PER_PART", runs)


@pytest.fixture
def one_run_per_part(monkeypatch) -> None:
    """run_case starts its pool from one run per slice, so a test's few runs
    with several workers go through the pool, not one in-process batch."""
    set_runs_per_part(monkeypatch, 1)


@pytest.fixture
def dyn() -> ClockDynamics:
    return ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)


@pytest.fixture
def ss(dyn):
    return build_state_space(dyn)


@pytest.fixture
def temp_model() -> TempSkewModel:
    return TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1)


def study_pdv_profile() -> PdvProfile:
    return PdvProfile(
        initial_stddevs=(5e-6, 3e-6, 5e-6),
        initial_weights=(0.4, 0.3, 0.3),
        rate_schedule=(
            RateSegment(1, 15, (-0.6e-7, 2.4e-7, 8e-7), (-11.6e-3, -2.8e-3)),
            RateSegment(16, 35, (0.0, 0.0, 0.0), (0.0, 0.0)),
            RateSegment(36, 55, (-7.25e-7, -1.1e-7, -5.5e-7), (11.7e-3, -4e-3)),
            RateSegment(56, 75, (4.5e-7, -1.3e-7, 7e-7), (-11.5e-3, -3.5e-3)),
        ),
    )


def study_thermal_profile(horizon: int = 75) -> ThermalProfile:
    return ThermalProfile(
        segments=(
            ThermalSegment(0, 20, "constant", {"value": 30.0}),
            ThermalSegment(21, 30, "multimodal", {"amp": 1.1, "quad": 0.005, "offset": 40.0}),
            ThermalSegment(31, 50, "colored-noise", {"mean": 20.0, "var_base": 0.02, "var_slope": 1e-2, "var_ref_k": 30.0}),
            ThermalSegment(51, 60, "first-order", {"slope": 1.0, "intercept": -30.0}),
            ThermalSegment(61, max(61, horizon - 1), "constant", {"value": 30.0}),
        ),
        cooling_constant=10.0,
        initial_oscillator_temp=30.0,
    )


def constant_thermal(horizon: int, value: float = 25.0) -> ThermalProfile:
    return ThermalProfile(
        segments=(ThermalSegment(0, horizon - 1, "constant", {"value": value}),),
        cooling_constant=10.0,
        initial_oscillator_temp=value,
    )


def thermal_run(t_ext: float, t_osc0: float, cooling_constant: float, horizon: int,
                sigma_T_sq: float = 0.0, seed: int = 0):
    """A generated run (a one-run batch) under a constant ambient t_ext whose
    oscillator starts at t_osc0; by default the sensor is noise-free."""
    cfg = ScenarioConfig(
        tau=1.0,
        horizon=horizon,
        link=LinkConfig(5e-6, 1e-6),
        pdv=PdvProfile(initial_stddevs=(1e-6,), initial_weights=(1.0,)),
        thermal=ThermalProfile(
            segments=(ThermalSegment(0, horizon - 1, "constant", {"value": t_ext}),),
            cooling_constant=cooling_constant,
            initial_oscillator_temp=t_osc0,
        ),
        temp_model=TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=sigma_T_sq),
        truth=TruthOptions(thermal_coupling=False),
    )
    return generate_scenario(cfg, [np.random.default_rng(seed)])


def exchange(offset, link, w1, w2, k, tau) -> ExchangeBatch:
    """The period-k exchange, timestamped as the scenario generator does."""
    return ExchangeBatch(*_exchange_times(offset, link, w1, w2, k, tau), period_index=k)


def run_measurements(data) -> np.ndarray:
    """Measurements a filter steps on in a generated batch, (R, h - 1, 2):
    [i, k - 1] is run i's period-k measurement."""
    return build_measurement(data.exchanges, data.d)[:, 1:]


def constant_oracle(weights, stddevs, horizon: int) -> OracleNoiseTruth:
    """Oracle whose noise mixture is the same in every period."""
    return OracleNoiseTruth(weights=np.tile(weights, (horizon, 1)), stddevs=np.tile(stddevs, (horizon, 1)))


def information(dyn, weights, stddevs, j0: float, steps: int, alpha=None):
    """Skew information J_0..J_steps from J_0 = j0 under a constant mixture,
    (linear, fusion), read off bclb_trajectory as the inverse bounds."""
    bl, bf = bclb_trajectory(constant_oracle(weights, stddevs, steps + 1), dyn, alpha, 1.0 / j0)
    return 1.0 / bl, 1.0 / bf


def rmse_by_name(table) -> dict[str, tuple[float, float]]:
    """An evaluate_rmse table as {estimator: (skew RMSE, offset RMSE)}."""
    return {name: (s, o) for name, s, o in zip(*(table[c].tolist() for c in ("estimator", "skew_rmse", "offset_rmse")))}


def toy_trajectories(theta_true, delta_true, est) -> Trajectories:
    """A (runs x periods) record holding truth and the given estimator
    columns only; the temperatures are NaN."""
    theta_true = np.asarray(theta_true, dtype=float)
    nan = np.full(theta_true.shape, np.nan)
    return Trajectories(runs=np.arange(theta_true.shape[0]), theta_true=theta_true,
                        delta_true=np.asarray(delta_true, dtype=float), temp_osc=nan, temp_meas=nan, est=est)
