"""Seeded Monte-Carlo execution of the estimator pipelines.

Each run draws its own RNG stream from (master_seed, run_index) and
generates its scenario once; every selected estimator then steps over the
shared records, so estimator comparisons are paired and adding an
estimator never changes another's trajectory. Runs are independent, so the
estimators step a whole batch of runs per period, and a run's trajectory
is bit-identical whatever batch it is in.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bclb import FusionBclbParams, OracleNoiseTruth, bclb_trajectory
from .clock import build_state_space
from .config import RunConfig
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
from .scenario import ExchangeBatch, generate_scenario, pdv_params_table, record_stamps
from .thermal import skew_from_temperature


@dataclass
class RunTrajectory:
    """One run's per-period truth, phase estimates, and bound values."""

    run: int
    theta_true: np.ndarray
    delta_true: np.ndarray
    temp_osc: np.ndarray
    temp_meas: np.ndarray
    theta_L: np.ndarray
    theta_T: np.ndarray
    theta_F: np.ndarray
    delta_hat: np.ndarray
    epsilon: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    bclb_L: np.ndarray
    bclb_F: np.ndarray
    est_skew: dict[str, np.ndarray] = field(default_factory=dict)
    est_offset: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.theta_true.shape[0]


@dataclass
class RmseSummary:
    """Per-estimator steady-state RMSEs (offset NaN where undefined)."""

    window: int
    rows: list[tuple[str, float, float]]

    def as_dict(self) -> dict[str, tuple[float, float]]:
        return {name: (s, o) for name, s, o in self.rows}


@dataclass
class FusionStudyResult:
    """Per-period study curves plus the steady-state comparison numbers."""

    rmse_single1: np.ndarray
    rmse_single2: np.ndarray
    rmse_fusion: np.ndarray
    bclb_single: np.ndarray
    bclb_fusion: np.ndarray
    steady_rmse_single1: float
    steady_rmse_single2: float
    steady_rmse_fusion: float
    steady_bclb_reduction: float

    @property
    def horizon(self) -> int:
        return self.rmse_single1.shape[0]


def _run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,)))


def _per_run(x, runs: int) -> np.ndarray:
    """x repeated along a new leading run axis."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(x, (runs,) + x.shape).copy()


def fusion_bound_params(cfg: RunConfig, alpha) -> Optional[FusionBclbParams]:
    """Fusion-bound inputs for a fixed weight or a per-period alpha sequence.

    None where the fusion bound is undefined: it needs a noisy temperature
    sensor (temp_model.sigma_T_sq > 0). Every command then reports the
    fusion bound as NaN.
    """
    model = cfg.temp_model
    if model.sigma_T_sq <= 0.0:
        return None
    return FusionBclbParams(
        alpha=alpha,
        sigma_m_sq=cfg.bclb.sigma_m_sq,
        sigma_T_sq=model.sigma_T_sq,
        kappa=model.kappa,
        T0=model.T0,
        theta0=model.theta0,
    )


def case_bounds(cfg: RunConfig, alpha) -> tuple[np.ndarray, np.ndarray]:
    """(BCLB_linear, BCLB_fusion) over the horizon under the configured PDV
    profile. Nothing here depends on a run's draws, so a fixed alpha gives
    one bound per case."""
    if cfg.scenario.pdv is None:
        raise ValueError("bounds require a synthetic PDV profile")
    weights, stddevs = pdv_params_table(cfg.scenario.pdv, cfg.scenario.horizon)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs, tau=cfg.scenario.tau)
    params = fusion_bound_params(cfg, alpha)
    return bclb_trajectory(oracle, cfg.dynamics, params, cfg.netcomm_init.p0_diag[0])


def simulate_run(cfg: RunConfig, runs: Sequence[int]) -> list[RunTrajectory]:
    """Generate each run's scenario, then step every selected estimator over
    all runs at once: the period loop is the only sequential loop."""
    runs = list(runs)
    n, h = len(runs), cfg.scenario.horizon
    sel = set(cfg.estimators)
    ss = build_state_space(cfg.dynamics)
    model = cfg.temp_model
    init = cfg.netcomm_init

    truth = {name: np.empty((n, h)) for name in ("skew_true", "offset_true", "temp_osc", "temp_meas")}
    stamps = np.empty((n, h, 5))
    d = np.empty(n)
    for i, r in enumerate(runs):
        data = generate_scenario(cfg.scenario, _run_rng(cfg.master_seed, r))
        for name, arr in truth.items():
            arr[i] = getattr(data, name)
        stamps[i] = record_stamps(data.records)
        d[i] = data.link.d
    ex = ExchangeBatch.from_stamps(stamps)
    later, earlier = ex.periods(slice(1, None)), ex.periods(slice(None, -1))
    z = np.full((n, h, 2), np.nan)
    z[:, 1:] = build_measurement(later, earlier, d[:, None])

    def nans() -> np.ndarray:
        return np.full((n, h), np.nan)

    theta_L, theta_F, delta_hat, epsilon, alpha, beta = (nans() for _ in range(6))
    est_skew = {name: nans() for name in sel}
    est_offset = {name: nans() for name in sel}
    need_thermal = ("tacd" in sel) or ("thermal-only" in sel)
    theta_T = skew_from_temperature(truth["temp_meas"], model) if need_thermal else nans()
    if "thermal-only" in sel:
        est_skew["thermal-only"] = theta_T
    if "gptp" in sel:
        est_offset["gptp"] = gptp_offset(ex, d[:, None])
        est_skew["gptp"][:, 1:] = gptp_skew(later, earlier, cfg.scenario.tau)

    def prior() -> GaussianBelief:
        return GaussianBelief(mean=_per_run(init.x0, n), cov=_per_run(np.diag(init.p0_diag), n))

    def fresh_filter() -> GsfVbFilter:
        noise = isotropic_mixture_model(init.chi0, init.dof0, init.scale0, init.unit_scale)
        noise = replace(
            noise,
            dirichlet_concentration=_per_run(noise.dirichlet_concentration, n),
            iw_dof=_per_run(noise.iw_dof, n),
            iw_scale=_per_run(noise.iw_scale, n),
        )
        return GsfVbFilter(ss, noise, prior(), vb=cfg.vb)

    baselines = {}
    if "kalman" in sel:
        baselines["kalman"] = KalmanBaseline(ss, nominal_noise_cov(cfg.kalman_nominal_stddev), prior())
    if "linear-only" in sel:
        baselines["linear-only"] = fresh_filter()
    for name in baselines:
        est_skew[name][:, 0], est_offset[name][:, 0] = init.x0
    tacd_f = fresh_filter() if "tacd" in sel else None
    if tacd_f is not None:
        theta_L[:, 0], delta_hat[:, 0], epsilon[:, 0] = init.x0[0], init.x0[1], init.p0_diag[0]
        est_skew["tacd"], est_offset["tacd"] = theta_F, delta_hat

    for k in range(h):
        if k > 0:
            for name, filt in baselines.items():
                res = filt.step(z[:, k])
                est_skew[name][:, k], est_offset[name][:, k] = res.skew, res.offset
        if tacd_f is not None:
            if k > 0:
                res = tacd_f.step(z[:, k])
                theta_L[:, k], delta_hat[:, k], epsilon[:, k] = res.skew, res.offset, res.epsilon
            stats = PhaseErrorStats(linear_variance=epsilon[:, k], temp_gap=truth["temp_meas"][:, k] - model.T0)
            wts = pareto_beta(stats, model, cfg.fusion.lam)
            theta_F[:, k] = fuse_skew(theta_L[:, k], theta_T[:, k], wts)
            if cfg.fusion.feedback:
                tacd_f.condition_on_skew(theta_F[:, k])
            alpha[:, k], beta[:, k] = wts.alpha, wts.beta

    bclb_l, bclb_f = nans(), nans()
    if cfg.scenario.empirical is None:
        if cfg.bclb.alpha_mode == "runtime" and tacd_f is not None:
            for i in range(n):
                bclb_l[i], bclb_f[i] = case_bounds(cfg, np.clip(np.nan_to_num(alpha[i], nan=1.0), 1e-12, 1.0))
        else:
            bclb_l[:], bclb_f[:] = case_bounds(cfg, cfg.bclb.alpha_value)

    return [
        RunTrajectory(
            run=r,
            theta_true=truth["skew_true"][i],
            delta_true=truth["offset_true"][i],
            temp_osc=truth["temp_osc"][i],
            temp_meas=truth["temp_meas"][i],
            theta_L=theta_L[i],
            theta_T=theta_T[i],
            theta_F=theta_F[i],
            delta_hat=delta_hat[i],
            epsilon=epsilon[i],
            alpha=alpha[i],
            beta=beta[i],
            bclb_L=bclb_l[i],
            bclb_F=bclb_f[i],
            est_skew={name: arr[i] for name, arr in est_skew.items()},
            est_offset={name: arr[i] for name, arr in est_offset.items()},
        )
        for i, r in enumerate(runs)
    ]


def _worker(args: tuple[RunConfig, range]) -> list[RunTrajectory]:
    cfg, runs = args
    return simulate_run(cfg, runs)


def run_case(cfg: RunConfig) -> list[RunTrajectory]:
    """Execute all Monte-Carlo runs; output is identical for any worker count.

    With several workers each pool worker steps one contiguous slice of run
    indices as a batch.
    """
    if cfg.workers <= 1 or cfg.runs == 1:
        return simulate_run(cfg, range(cfg.runs))
    parts = min(cfg.workers, cfg.runs)
    edges = [cfg.runs * p // parts for p in range(parts + 1)]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        batches = pool.map(_worker, [(cfg, range(a, b)) for a, b in zip(edges, edges[1:])])
        return [t for batch in batches for t in batch]


def trajectory_rows(trajectories: Sequence[RunTrajectory]):
    """Flatten runs into trajectory CSV rows (run-major, then period)."""
    for t in trajectories:
        for k in range(t.horizon):
            yield (
                t.run, k, t.theta_true[k], t.delta_true[k], t.temp_osc[k], t.temp_meas[k],
                t.theta_L[k], t.theta_T[k], t.theta_F[k], t.delta_hat[k], t.epsilon[k],
                t.alpha[k], t.beta[k], t.bclb_L[k], t.bclb_F[k],
            )


def _window_slice(horizon: int, window: int) -> slice:
    if window < 1 or window > horizon:
        raise ValueError(f"window must lie in [1, horizon={horizon}], got {window}")
    return slice(horizon - window, horizon)


def evaluate_rmse(
    trajectories: Sequence[RunTrajectory],
    window: int,
    estimators: Optional[Sequence[str]] = None,
) -> RmseSummary:
    """Steady-state RMSE over the last `window` periods, across all runs."""
    if not trajectories:
        raise ValueError("no trajectories to evaluate")
    h = trajectories[0].horizon
    sl = _window_slice(h, window)
    names = list(estimators) if estimators is not None else sorted(trajectories[0].est_skew)
    rows = []
    for name in names:
        sk_err, of_err = [], []
        for t in trajectories:
            sk_err.append(t.est_skew[name][sl] - t.theta_true[sl])
            of_err.append(t.est_offset[name][sl] - t.delta_true[sl])
        sk = np.concatenate(sk_err)
        of = np.concatenate(of_err)
        sk_rmse = float(np.sqrt(np.mean(sk**2)))
        of_rmse = float(np.sqrt(np.mean(of**2))) if np.any(np.isfinite(of)) else float("nan")
        rows.append((name, sk_rmse, of_rmse))
    return RmseSummary(window=window, rows=rows)


def summary_rows(summary: RmseSummary):
    for name, sk, of in summary.rows:
        yield (name, sk, of)


def fusion_study(cfg: RunConfig) -> tuple[FusionStudyResult, list[RunTrajectory]]:
    """Per-period RMSE of the three estimator variants plus both bounds.

    Runs the fused pipeline, the isolated network-phase filter, and the
    thermal phase on shared scenario draws; bound curves follow the
    configured alpha mode ("fixed" reference weight by default, "runtime"
    uses the Monte-Carlo mean of the produced alpha sequence).
    """
    study_cfg = cfg.with_overrides(estimators=("tacd", "linear-only", "thermal-only"))
    trajs = run_case(study_cfg)
    h = trajs[0].horizon

    def per_period_rmse(pick) -> np.ndarray:
        err = np.stack([pick(t) for t in trajs])
        return np.sqrt(np.mean(err**2, axis=0))

    r1 = per_period_rmse(lambda t: t.est_skew["linear-only"] - t.theta_true)
    r2 = per_period_rmse(lambda t: t.est_skew["thermal-only"] - t.theta_true)
    rf = per_period_rmse(lambda t: t.est_skew["tacd"] - t.theta_true)

    if trajs[0].bclb_L is None or not np.any(np.isfinite(trajs[0].bclb_L)):
        raise ValueError("fusion study requires a synthetic PDV profile (oracle bounds)")
    bclb_l = trajs[0].bclb_L
    if cfg.bclb.alpha_mode == "runtime":
        # rebuild the bound with the Monte-Carlo mean alpha sequence
        mean_alpha = np.clip(np.mean(np.stack([t.alpha for t in trajs]), axis=0), 1e-12, 1.0)
        bclb_l, bclb_f = case_bounds(cfg, mean_alpha)
    else:
        bclb_f = trajs[0].bclb_F

    sl = _window_slice(h, cfg.steady_window)
    reduction = 1.0 - float(np.mean(bclb_f[sl]) / np.mean(bclb_l[sl]))
    result = FusionStudyResult(
        rmse_single1=r1,
        rmse_single2=r2,
        rmse_fusion=rf,
        bclb_single=bclb_l,
        bclb_fusion=bclb_f,
        steady_rmse_single1=float(np.sqrt(np.mean(r1[sl] ** 2))),
        steady_rmse_single2=float(np.sqrt(np.mean(r2[sl] ** 2))),
        steady_rmse_fusion=float(np.sqrt(np.mean(rf[sl] ** 2))),
        steady_bclb_reduction=reduction,
    )
    return result, trajs


def fusion_study_rows(result: FusionStudyResult):
    for k in range(result.horizon):
        yield (
            k,
            result.rmse_single1[k],
            result.rmse_single2[k],
            result.rmse_fusion[k],
            result.bclb_single[k],
            result.bclb_fusion[k],
        )


def bclb_rows(cfg: RunConfig) -> list[tuple]:
    """Bound-only evaluation from the configured scenario (no estimators)."""
    if cfg.scenario.pdv is None:
        raise ValueError("bclb evaluation requires a synthetic PDV profile")
    if cfg.bclb.alpha_mode == "runtime":
        raise ValueError("bclb subcommand needs a fixed alpha (set bclb.alpha_mode='fixed')")
    bclb_l, bclb_f = case_bounds(cfg, cfg.bclb.alpha_value)
    return [(k, bclb_l[k], bclb_f[k]) for k in range(len(bclb_l))]
