"""Seeded Monte-Carlo execution of the estimator pipelines.

Each run draws its own RNG stream from (master_seed, run_index), and a
batch's scenarios come from one generate_scenario call. ESTIMATORS maps
each estimator name to one function of a batch's shared inputs
(BatchInputs); every estimator reads the same draws and none reads
another's output, so comparisons are paired and adding an estimator never
changes another's trajectory. Estimators step
a whole batch of runs per period, and a run's trajectory is bit-identical
whatever batch it is in. Results are one Trajectories record. Each CSV
artifact is one table built here: an ordered dict of named columns that
broadcast to one shape, a row per element (report.emit_table writes it).
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .bclb import OracleNoiseTruth, bclb_trajectory
from .clock import build_state_space
from .fusion import PhaseErrorStats, fuse_skew, pareto_beta
from .netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    build_measurement,
    gptp_offset,
    gptp_skew,
    isotropic_mixture_model,
    nominal_noise_cov,
)
from .scenario import ExchangeBatch, generate_scenario, pdv_params_table
from .thermal import skew_from_temperature

if TYPE_CHECKING:
    from .config import RunConfig

# Trajectory columns owned by one estimator; NaN where it is not selected.
OWNED_COLUMNS = ("theta_L", "theta_T", "epsilon", "alpha", "beta")

# The network-phase fusion weight the fusion bound is evaluated at.
FUSION_BOUND_ALPHA = 0.5


@dataclass
class Trajectories:
    """Per-period truth and estimates of a set of runs.

    Every array is (R, h); row i belongs to run runs[i]. theta_L, epsilon,
    alpha and beta are the fused pipeline's (tacd), theta_T is the thermal
    phase's (tacd or thermal-only).
    """

    runs: np.ndarray
    theta_true: np.ndarray
    delta_true: np.ndarray
    temp_osc: np.ndarray
    temp_meas: np.ndarray
    theta_L: np.ndarray
    theta_T: np.ndarray
    epsilon: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    est_skew: dict[str, np.ndarray]
    est_offset: dict[str, np.ndarray]

    @property
    def horizon(self) -> int:
        return self.theta_true.shape[1]

    @property
    def theta_F(self) -> np.ndarray:
        """The fused skew, tacd's estimate (NaN when tacd is not selected)."""
        return self.est_skew.get("tacd", np.full(self.theta_true.shape, np.nan))

    @property
    def delta_hat(self) -> np.ndarray:
        """The fused pipeline's offset estimate (NaN when tacd is not selected)."""
        return self.est_offset.get("tacd", np.full(self.theta_true.shape, np.nan))

    @classmethod
    def concat(cls, parts: Sequence[Trajectories]) -> Trajectories:
        """Join records along the run axis, in the given order."""
        arrays = {
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)
            if f.name not in ("est_skew", "est_offset")
        }
        return cls(
            **arrays,
            est_skew={name: np.concatenate([p.est_skew[name] for p in parts]) for name in parts[0].est_skew},
            est_offset={name: np.concatenate([p.est_offset[name] for p in parts]) for name in parts[0].est_offset},
        )


@dataclass
class FusionStudyResult:
    """The study curves as a table, one row per period, and the
    steady-state comparison numbers."""

    table: dict[str, np.ndarray]
    steady_rmse_single1: float
    steady_rmse_single2: float
    steady_rmse_fusion: float
    steady_bclb_reduction: float


def _run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,)))


# An estimator's (R, h) skew and offset, k = 0 included, and the
# trajectory columns it owns, by name.
Estimate = tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]


@dataclass(frozen=True)
class BatchInputs:
    """What every estimator reads for one batch of R runs over h periods."""

    cfg: RunConfig
    z: np.ndarray  # (R, h, 2); NaN at k = 0, which has no earlier exchange
    exchanges: ExchangeBatch  # fields (R, h)
    d: float  # the case's known path asymmetry
    temp_meas: np.ndarray  # (R, h)

    def nans(self) -> np.ndarray:
        return np.full(self.temp_meas.shape, np.nan)


def _per_run(x, runs: int) -> np.ndarray:
    """x repeated along a new leading run axis."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(x, (runs,) + x.shape).copy()


def _prior(b: BatchInputs) -> GaussianBelief:
    init, n = b.cfg.netcomm_init, len(b.z)
    return GaussianBelief(mean=_per_run(init.x0, n), cov=_per_run(np.diag(init.p0_diag), n))


def _gsf_vb_filter(b: BatchInputs) -> GsfVbFilter:
    init, n = b.cfg.netcomm_init, len(b.z)
    noise = isotropic_mixture_model(init.chi0, init.dof0, init.scale0)
    noise = replace(
        noise,
        dirichlet_concentration=_per_run(noise.dirichlet_concentration, n),
        iw_dof=_per_run(noise.iw_dof, n),
        iw_scale=_per_run(noise.iw_scale, n),
    )
    return GsfVbFilter(build_state_space(b.cfg.dynamics), noise, _prior(b), vb=b.cfg.vb)


def _track(filt, b: BatchInputs) -> Estimate:
    """Step a filter over periods 1..h-1; k = 0 reports the prior mean."""
    skew, offset = b.nans(), b.nans()
    skew[:, 0], offset[:, 0] = b.cfg.netcomm_init.x0
    for k in range(1, skew.shape[1]):
        res = filt.step(b.z[:, k])
        skew[:, k], offset[:, k] = res.skew, res.offset
    return skew, offset, {}


def _tacd(b: BatchInputs) -> Estimate:
    """GSF-VB network phase and thermal phase, Pareto-fused each period; the
    fused skew is fed back into the filter when configured."""
    cfg, model, init = b.cfg, b.cfg.temp_model, b.cfg.netcomm_init
    filt = _gsf_vb_filter(b)
    theta_T = skew_from_temperature(b.temp_meas, model)
    theta_L, theta_F, delta_hat, epsilon, alpha, beta = (b.nans() for _ in range(6))
    theta_L[:, 0], delta_hat[:, 0], epsilon[:, 0] = init.x0[0], init.x0[1], init.p0_diag[0]
    for k in range(theta_T.shape[1]):
        if k > 0:
            res = filt.step(b.z[:, k])
            theta_L[:, k], delta_hat[:, k], epsilon[:, k] = res.skew, res.offset, res.epsilon
        stats = PhaseErrorStats(linear_variance=epsilon[:, k], temp_gap=b.temp_meas[:, k] - model.T0)
        wts = pareto_beta(stats, model, cfg.fusion.lam)
        theta_F[:, k] = fuse_skew(theta_L[:, k], theta_T[:, k], wts)
        if cfg.fusion.feedback:
            filt.condition_on_skew(theta_F[:, k])
        alpha[:, k], beta[:, k] = wts.alpha, wts.beta
    columns = {"theta_L": theta_L, "theta_T": theta_T, "epsilon": epsilon, "alpha": alpha, "beta": beta}
    return theta_F, delta_hat, columns


def _gptp(b: BatchInputs) -> Estimate:
    """Plain two-way arithmetic; skew needs two exchanges, so it is NaN at k = 0."""
    ex = b.exchanges
    skew = b.nans()
    skew[:, 1:] = gptp_skew(ex.periods(slice(1, None)), ex.periods(slice(None, -1)), b.cfg.scenario.tau)
    return skew, gptp_offset(ex, b.d), {}


def _kalman(b: BatchInputs) -> Estimate:
    """Kalman filter with a fixed nominal measurement noise."""
    ss = build_state_space(b.cfg.dynamics)
    return _track(KalmanBaseline(ss, nominal_noise_cov(b.cfg.kalman_nominal_stddev), _prior(b)), b)


def _thermal_only(b: BatchInputs) -> Estimate:
    """The thermal phase alone; it estimates skew only."""
    theta_T = skew_from_temperature(b.temp_meas, b.cfg.temp_model)
    return theta_T, b.nans(), {"theta_T": theta_T}


def _linear_only(b: BatchInputs) -> Estimate:
    """The GSF-VB network phase alone, without fusion."""
    return _track(_gsf_vb_filter(b), b)


ESTIMATORS = {
    "tacd": _tacd,
    "gptp": _gptp,
    "kalman": _kalman,
    "thermal-only": _thermal_only,
    "linear-only": _linear_only,
}


def case_bounds(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(BCLB_linear, BCLB_fusion) over the horizon under the configured PDV
    profile, the fusion bound at the weight FUSION_BOUND_ALPHA. The bound
    depends on no run's draws, so there is one per case. The fusion bound
    needs a noisy temperature sensor (temp_model.sigma_T_sq > 0); without
    one it is NaN.
    """
    if cfg.scenario.pdv is None:
        raise ValueError("bounds require a synthetic PDV profile")
    alpha = FUSION_BOUND_ALPHA if cfg.temp_model.sigma_T_sq > 0.0 else None
    weights, stddevs = pdv_params_table(cfg.scenario.pdv, cfg.scenario.horizon)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
    return bclb_trajectory(oracle, cfg.dynamics, alpha, cfg.netcomm_init.p0_diag[0])


def simulate_run(cfg: RunConfig, runs: Sequence[int]) -> Trajectories:
    """Generate the runs' scenarios as one batch, then run every selected
    estimator over all runs at once."""
    runs = np.asarray(list(runs), dtype=int)
    data = generate_scenario(cfg.scenario, [_run_rng(cfg.master_seed, r) for r in runs.tolist()])
    ex = data.exchanges
    z = np.full(data.skew_true.shape + (2,), np.nan)
    z[:, 1:] = build_measurement(ex.periods(slice(1, None)), ex.periods(slice(None, -1)), data.d)
    inputs = BatchInputs(cfg=cfg, z=z, exchanges=ex, d=data.d, temp_meas=data.temp_meas)

    columns = {name: inputs.nans() for name in OWNED_COLUMNS}
    est_skew, est_offset = {}, {}
    for name in cfg.estimators:
        est_skew[name], est_offset[name], owned = ESTIMATORS[name](inputs)
        columns.update(owned)

    return Trajectories(runs=runs, theta_true=data.skew_true, delta_true=data.offset_true, temp_osc=data.temp_osc,
                        temp_meas=data.temp_meas, **columns, est_skew=est_skew, est_offset=est_offset)


def run_case(cfg: RunConfig) -> Trajectories:
    """Execute all Monte-Carlo runs; output is identical for any worker count.

    With several workers each pool worker steps one contiguous slice of run
    indices as a batch.
    """
    if cfg.workers <= 1 or cfg.runs == 1:
        return simulate_run(cfg, range(cfg.runs))
    parts = min(cfg.workers, cfg.runs)
    edges = [cfg.runs * p // parts for p in range(parts + 1)]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        slices = [range(a, b) for a, b in zip(edges, edges[1:])]
        return Trajectories.concat(list(pool.map(simulate_run, [cfg] * parts, slices)))


def trajectory_table(cfg: RunConfig, t: Trajectories) -> dict[str, np.ndarray]:
    """The trajectory artifact: (R, h) columns, one row per run and period,
    run-major. The bounds are the case's, (h,) on every run's rows (NaN in
    empirical-delay mode, which has no oracle)."""
    h = t.horizon
    bclb_l, bclb_f = case_bounds(cfg) if cfg.scenario.pdv is not None else (np.full(h, np.nan),) * 2
    return {
        "run": t.runs[:, None], "k": np.arange(h), "theta_true": t.theta_true, "delta_true": t.delta_true,
        "T_osc": t.temp_osc, "T_meas": t.temp_meas, "theta_L": t.theta_L, "theta_T": t.theta_T,
        "theta_F": t.theta_F, "delta_hat": t.delta_hat, "epsilon": t.epsilon, "alpha": t.alpha, "beta": t.beta,
        "bclb_L": bclb_l, "bclb_F": bclb_f,
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
    table with one row per estimator (offset NaN where undefined)."""
    t = trajectories
    if len(t.runs) == 0:
        raise ValueError("no trajectories to evaluate")
    sl = _window_slice(t.horizon, window)
    names = list(estimators) if estimators is not None else sorted(t.est_skew)
    skew, offset = [], []
    for name in names:
        sk = t.est_skew[name][:, sl] - t.theta_true[:, sl]
        of = t.est_offset[name][:, sl] - t.delta_true[:, sl]
        skew.append(np.sqrt(np.mean(sk**2)))
        offset.append(np.sqrt(np.mean(of**2)) if np.any(np.isfinite(of)) else np.nan)
    return {"estimator": np.array(names), "skew_rmse": np.array(skew), "offset_rmse": np.array(offset)}


def skew_rmse_per_period(t: Trajectories, name: str) -> np.ndarray:
    """One estimator's skew RMSE at each period, across runs."""
    return np.sqrt(np.mean((t.est_skew[name] - t.theta_true) ** 2, axis=0))


def fusion_study(cfg: RunConfig) -> tuple[FusionStudyResult, Trajectories]:
    """Per-period RMSE of the three estimator variants plus both bounds.

    Runs the fused pipeline, the isolated network-phase filter, and the
    thermal phase on shared scenario draws; the bound curves are
    case_bounds'.
    """
    if cfg.scenario.pdv is None:
        raise ValueError("fusion study requires a synthetic PDV profile (oracle bounds)")
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
    sl = _window_slice(t.horizon, cfg.steady_window)

    def steady(column: str) -> float:
        return float(np.sqrt(np.mean(table[column][sl] ** 2)))

    result = FusionStudyResult(
        table=table,
        steady_rmse_single1=steady("rmse_single1"),
        steady_rmse_single2=steady("rmse_single2"),
        steady_rmse_fusion=steady("rmse_fusion"),
        steady_bclb_reduction=1.0 - float(np.mean(bclb_f[sl]) / np.mean(bclb_l[sl])),
    )
    return result, t


def bclb_table(cfg: RunConfig) -> dict[str, np.ndarray]:
    """The bound curves of the configured scenario, one row per period; no
    estimator runs."""
    bclb_l, bclb_f = case_bounds(cfg)
    return {"k": np.arange(len(bclb_l)), "bclb_L": bclb_l, "bclb_F": bclb_f}
