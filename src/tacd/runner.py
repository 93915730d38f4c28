"""Seeded Monte-Carlo execution of the estimator pipelines.

Each run draws its own RNG stream from (master_seed, run_index), and a
batch's scenarios come from one generate_scenario call. ESTIMATORS maps
each estimator name to a function of the batch's config, measurements and
measured temperatures that returns the (R, h) columns of every estimator it
computes; tacd and linear-only share one function, which steps one GSF-VB
filter over both estimators' rows stacked. Every estimator reads the same
draws and none reads another's output (the stacked rows stay independent),
so comparisons are paired and adding an estimator never changes another's
trajectory. Estimators step a whole batch of runs per period, and a run's
trajectory is bit-identical whatever batch it is in; run_case steps all of a
command's runs in-process as one batch. Results are one
Trajectories record: the truth plus each estimator's columns, which tables
read by estimator name, never by selection order. Each CSV artifact is one
table built here: an ordered dict of named columns that broadcast to one
shape, a row per element (report.emit_table writes it). Each reported
number has one producer: steady-state RMSEs evaluate_rmse, the steady bound
reduction bound_reduction, the bounds case_bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .bclb import OracleNoiseTruth, bclb_trajectory
from .clock import build_state_space
from .fusion import fuse_skew, pareto_beta, thermal_variance
from .netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    build_measurement,
    isotropic_mixture_model,
    nominal_noise_cov,
)
from .scenario import generate_scenario, pdv_params_table
from .thermal import skew_from_temperature

if TYPE_CHECKING:
    from .config import RunConfig

# The network-phase fusion weight the fusion bound is evaluated at.
FUSION_BOUND_ALPHA = 0.5


@dataclass
class Trajectories:
    """Per-period truth and estimates of a set of runs.

    Every array is (R, h); row i belongs to run runs[i]. temp_osc is
    read-only, and where the thermal path draws nothing it is one row
    broadcast over the runs. est maps each selected estimator, in selection
    order, to the columns it computes.
    """

    runs: np.ndarray
    theta_true: np.ndarray
    delta_true: np.ndarray
    temp_osc: np.ndarray
    temp_meas: np.ndarray
    est: dict[str, dict[str, np.ndarray]]

    @property
    def horizon(self) -> int:
        return self.theta_true.shape[1]


def _run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,)))


def _prior(cfg: RunConfig, n: int) -> GaussianBelief:
    init = cfg.netcomm_init
    return GaussianBelief(init.x0, np.diag(init.p0_diag), runs=n)


def _gsf_vb_filter(cfg: RunConfig, n: int) -> GsfVbFilter:
    init = cfg.netcomm_init
    noise = isotropic_mixture_model(init.chi0, init.dof0, init.scale0, runs=n)
    return GsfVbFilter(build_state_space(cfg.dynamics), noise, _prior(cfg, n), vb=cfg.vb)


def _network_phase(cfg: RunConfig, z: np.ndarray, temp_meas: np.ndarray) -> dict:
    """tacd and linear-only: one GSF-VB filter stepped over 2R rows, tacd's
    R rows first, then linear-only's. tacd's rows are Pareto-fused with the
    thermal phase each period, their fused skew fed back into the filter
    when configured; linear-only's rows are the filter alone and get their
    own skew back. The filter is row-independent, so each half's columns
    are the ones a pass of its own would give."""
    model, (runs, horizon) = cfg.temp_model, temp_meas.shape
    z = np.concatenate([z, z])
    filt = _gsf_vb_filter(cfg, 2 * runs)
    theta_L, delta_hat = np.full((2 * runs, horizon), np.nan), np.full((2 * runs, horizon), np.nan)
    theta_T = skew_from_temperature(temp_meas, model)
    thermal_var = thermal_variance(temp_meas - model.T0, model)
    theta_F, epsilon, beta = (np.full((runs, horizon), np.nan) for _ in range(3))
    for k in range(horizon):
        if k > 0:
            filt.step(z[:, k])
        # the belief rows (x0, x1, P00, P01, P11)
        state = filt.belief.rows
        theta_L[:, k], delta_hat[:, k] = state[:2]
        epsilon[:, k] = state[2, :runs]
        beta[:, k] = pareto_beta(state[2, :runs], thermal_var[:, k], model, cfg.fusion.lam)
        theta_F[:, k] = fuse_skew(state[0, :runs], theta_T[:, k], beta[:, k])
        if cfg.fusion.feedback:
            skew = state[0].copy()
            skew[:runs] = theta_F[:, k]
            filt.condition_on_skew(skew)
    tacd = {"skew": theta_F, "offset": delta_hat[:runs], "theta_L": theta_L[:runs], "theta_T": theta_T,
            "epsilon": epsilon, "alpha": 1.0 - beta, "beta": beta}
    return {"tacd": tacd, "linear-only": {"skew": theta_L[runs:], "offset": delta_hat[runs:]}}


def _gptp(cfg: RunConfig, z: np.ndarray, temp_meas: np.ndarray) -> dict:
    """Plain two-way arithmetic on the measurement; skew needs two exchanges,
    so it is NaN at k = 0."""
    return {"gptp": {"skew": z[..., 0] / cfg.dynamics.tau, "offset": z[..., 1] / 2.0}}


def _kalman(cfg: RunConfig, z: np.ndarray, temp_meas: np.ndarray) -> dict:
    """Kalman filter with a fixed nominal measurement noise; its estimate is
    the belief mean at every period: the prior at k = 0, then one step per
    period."""
    ss = build_state_space(cfg.dynamics)
    filt = KalmanBaseline(ss, nominal_noise_cov(cfg.kalman_nominal_stddev), _prior(cfg, len(z)))
    skew, offset = np.full(temp_meas.shape, np.nan), np.full(temp_meas.shape, np.nan)
    for k in range(skew.shape[1]):
        if k > 0:
            filt.step(z[:, k])
        skew[:, k], offset[:, k] = filt.belief.rows[:2]
    return {"kalman": {"skew": skew, "offset": offset}}


def _thermal_only(cfg: RunConfig, z: np.ndarray, temp_meas: np.ndarray) -> dict:
    """The thermal phase alone; it estimates skew only."""
    return {"thermal-only": {"skew": skew_from_temperature(temp_meas, cfg.temp_model)}}


# Each estimator name maps to the function that computes it. A function
# reads the batch's config, its measurements z, (R, h, 2) from
# build_measurement, and its measured temperatures, (R, h), and returns the
# (R, h) columns of every estimator it computes, by name, k = 0 included:
# "skew" always, "offset" where it estimates one, then any columns of its
# own. simulate_run calls each distinct function of the selection once and
# keeps the selected names.
ESTIMATORS = {
    "tacd": _network_phase,
    "gptp": _gptp,
    "kalman": _kalman,
    "thermal-only": _thermal_only,
    "linear-only": _network_phase,
}


def case_bounds(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(BCLB_linear, BCLB_fusion) over the horizon under the configured PDV
    profile, the fusion bound at the weight FUSION_BOUND_ALPHA. The bound
    depends on no run's draws, so there is one per case. Empirical delays
    have no oracle noise profile, so both bounds are NaN there; the fusion
    bound also needs a noisy temperature sensor (temp_model.sigma_T_sq > 0)
    and is NaN without one.
    """
    if cfg.scenario.pdv is None:
        return np.full(cfg.scenario.horizon, np.nan), np.full(cfg.scenario.horizon, np.nan)
    alpha = FUSION_BOUND_ALPHA if cfg.temp_model.sigma_T_sq > 0.0 else None
    weights, stddevs = pdv_params_table(cfg.scenario.pdv, cfg.scenario.horizon)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
    return bclb_trajectory(oracle, cfg.dynamics, alpha, cfg.netcomm_init.p0_diag[0])


def simulate_run(cfg: RunConfig, runs: Sequence[int]) -> Trajectories:
    """Generate the runs' scenarios as one batch, then run every selected
    estimator over all runs at once."""
    runs = np.asarray(list(runs), dtype=int)
    data = generate_scenario(cfg.scenario, [_run_rng(cfg.master_seed, r) for r in runs.tolist()])
    z = build_measurement(data.exchanges, data.d)
    est = {}
    for estimate in dict.fromkeys(ESTIMATORS[name] for name in cfg.estimators):
        est.update(estimate(cfg, z, data.temp_meas))
    return Trajectories(runs=runs, theta_true=data.skew_true, delta_true=data.offset_true, temp_osc=data.temp_osc,
                        temp_meas=data.temp_meas, est={name: est[name] for name in cfg.estimators})


def run_case(cfg: RunConfig) -> Trajectories:
    """Execute all Monte-Carlo runs in-process, as one batch."""
    return simulate_run(cfg, range(cfg.runs))


def trajectory_table(cfg: RunConfig, t: Trajectories) -> dict[str, np.ndarray]:
    """The trajectory artifact: (R, h) columns, one row per run and period,
    run-major. The estimate columns are the fused pipeline's, read from
    tacd's record by name: theta_F and delta_hat are its skew and offset.
    Without tacd they are a read-only NaN broadcast, except theta_T, which
    is then thermal-only's skew where that is selected. The bounds are
    case_bounds', (h,) on every run's rows."""
    bclb_l, bclb_f = case_bounds(cfg)
    nan = np.broadcast_to(np.nan, t.theta_true.shape)
    tacd = t.est.get("tacd") or {**dict.fromkeys(("skew", "offset", "theta_L", "epsilon", "alpha", "beta"), nan),
                                 "theta_T": t.est.get("thermal-only", {}).get("skew", nan)}
    return {
        "run": t.runs[:, None], "k": np.arange(t.horizon), "theta_true": t.theta_true, "delta_true": t.delta_true,
        "T_osc": t.temp_osc, "T_meas": t.temp_meas, "theta_L": tacd["theta_L"], "theta_T": tacd["theta_T"],
        "theta_F": tacd["skew"], "delta_hat": tacd["offset"], "epsilon": tacd["epsilon"], "alpha": tacd["alpha"],
        "beta": tacd["beta"], "bclb_L": bclb_l, "bclb_F": bclb_f,
    }


def _window_slice(horizon: int, window: int) -> slice:
    if window < 1 or window > horizon:
        raise ValueError(f"window must lie in [1, horizon={horizon}], got {window}")
    return slice(horizon - window, horizon)


def evaluate_rmse(
    trajectories: Trajectories,
    window: int,
    estimators: Optional[Sequence[str]] = None,
) -> dict[str, np.ndarray]:
    """Steady-state RMSE over the last `window` periods, across all runs: a
    table with one row per estimator (offset NaN where it has no offset)."""
    t = trajectories
    if len(t.runs) == 0:
        raise ValueError("no trajectories to evaluate")
    sl = _window_slice(t.horizon, window)
    names = list(estimators) if estimators is not None else sorted(t.est)
    skew, offset = [], []
    for name in names:
        est = t.est[name]
        of = est["offset"][:, sl] - t.delta_true[:, sl] if "offset" in est else np.nan
        skew.append(np.sqrt(np.mean((est["skew"][:, sl] - t.theta_true[:, sl]) ** 2)))
        offset.append(np.sqrt(np.mean(of**2)))
    return {"estimator": np.array(names), "skew_rmse": np.array(skew), "offset_rmse": np.array(offset)}


def skew_rmse_per_period(t: Trajectories, name: str) -> np.ndarray:
    """One estimator's skew RMSE at each period, across runs."""
    return np.sqrt(np.mean((t.est[name]["skew"] - t.theta_true) ** 2, axis=0))


def bound_reduction(bclb_l: np.ndarray, bclb_f: np.ndarray, window: int) -> float:
    """1 - mean(BCLB_fusion) / mean(BCLB_linear) over the last `window`
    periods: how far fusion lowers the steady-state bound; NaN where the
    bounds are."""
    sl = _window_slice(len(bclb_l), window)
    return 1.0 - float(np.mean(bclb_f[sl]) / np.mean(bclb_l[sl]))


def fusion_study(cfg: RunConfig) -> tuple[dict[str, np.ndarray], Trajectories]:
    """Per-period skew RMSE of the fused pipeline, the isolated network-phase
    filter and the thermal phase on shared scenario draws, plus case_bounds'
    curves: the study table, one row per period, and the trajectories."""
    t = run_case(cfg.with_overrides(estimators=("tacd", "linear-only", "thermal-only")))
    bclb_l, bclb_f = case_bounds(cfg)
    table = {
        "k": np.arange(t.horizon),
        "rmse_single1": skew_rmse_per_period(t, "linear-only"),
        "rmse_single2": skew_rmse_per_period(t, "thermal-only"),
        "rmse_fusion": skew_rmse_per_period(t, "tacd"),
        "bclb_single": bclb_l,
        "bclb_fusion": bclb_f,
    }
    return table, t


def bclb_table(cfg: RunConfig) -> dict[str, np.ndarray]:
    """The bound curves of the configured scenario, one row per period; no
    estimator runs."""
    bclb_l, bclb_f = case_bounds(cfg)
    return {"k": np.arange(len(bclb_l)), "bclb_L": bclb_l, "bclb_F": bclb_f}
