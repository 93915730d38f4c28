import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tacd import runner
from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.clock import ClockDynamics, build_state_space
from tacd.config import load_config
from tacd.netcomm import GaussianBelief, MixtureNoiseModel, build_measurement, isotropic_mixture_model
from tacd.runner import Trajectories
from tacd.scenario import (
    ExchangeBatch,
    PdvProfile,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    _exchange_times,
    generate_scenario,
)
from tacd.thermal import TempSkewModel

# The repository; every test reaches a shipped file through it, never through
# the working directory
ROOT = Path(__file__).resolve().parent.parent
# The shipped cases: the three comparative cases and the model-fusion study
SHIPPED = ("case1", "case2", "case3", "fusion_study")


def config_path(name: str) -> Path:
    """The absolute path of the shipped config name ("case1", ...)."""
    return ROOT / "configs" / f"{name}.json"


def study_doc() -> dict:
    """The study config as parsed JSON, a fresh dict per call for the caller to edit."""
    return json.loads(config_path("fusion_study").read_text(encoding="utf-8"))


# The shipped study case, read once, so the tests named after it follow the file
STUDY = load_config(config_path("fusion_study"))


@pytest.fixture(scope="session", autouse=True)
def run_outside_the_repository(tmp_path_factory):
    """Run the session in an empty directory, so a test that reads a path
    relative to the working directory fails wherever pytest starts."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))
    yield
    os.chdir(cwd)


@pytest.fixture
def dyn() -> ClockDynamics:
    return STUDY.dynamics


def study_prior(runs=None) -> GaussianBelief:
    """The study's filter prior (netcomm_init's x0 and P0_diag), as the runner builds it."""
    return runner._prior(STUDY, runs)


def study_noise(runs=None) -> MixtureNoiseModel:
    """The study's VB noise hyperprior (netcomm_init's chi0, dof0 and scale0),
    as the runner builds it."""
    init = STUDY.netcomm_init
    return isotropic_mixture_model(init.chi0, init.dof0, init.scale0, runs=runs)


@pytest.fixture
def ss(dyn):
    return build_state_space(dyn)


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
    cfg = replace(
        STUDY.scenario,
        horizon=horizon,
        pdv=PdvProfile(initial_stddevs=(1e-6,), initial_weights=(1.0,)),
        thermal=ThermalProfile(
            segments=(ThermalSegment(0, horizon - 1, "constant", {"value": t_ext}),),
            cooling_constant=cooling_constant,
            initial_oscillator_temp=t_osc0,
        ),
        temp_model=TempSkewModel(sigma_T_sq=sigma_T_sq),
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


def matched_filter_window_mse(dyn, lam: float, runs: int, horizon: int, seed: int) -> list[float]:
    """Skew paths under dyn, each tracked from 3e-7 (variance 5e-6) by the
    scalar Kalman filter matched to dyn and a measurement noise stddev lam:
    the mean squared error over the runs in each of the last 10 periods."""
    rng = np.random.default_rng(seed)
    theta = np.full(runs, 3e-7)
    est = np.full(runs, 3e-7)
    p = 5e-6
    window = []
    for k in range(1, horizon):
        theta = dyn.m * theta + rng.standard_normal(runs) * np.sqrt(dyn.sigma_u_sq)
        z = dyn.tau * theta + rng.standard_normal(runs) * lam
        p_pred = dyn.m**2 * p + dyn.sigma_u_sq
        s = dyn.tau**2 * p_pred + lam**2
        gain = p_pred * dyn.tau / s
        est = dyn.m * est + gain * (z - dyn.tau * dyn.m * est)
        p = (1.0 - gain * dyn.tau) * p_pred
        if k >= horizon - 10:
            window.append(np.mean((est - theta) ** 2))
    return window


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
