"""Independent numerical oracles shared by the unit and acceptance suites."""
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import digamma

from tacd.bclb import OracleNoiseTruth
from tacd.clock import ClockDynamics
from tacd.scenario import LinkConfig, ScenarioConfig, ThermalProfile, ThermalSegment, pdv_params_table


def random_fusion_tuples(n, rng):
    """Random (eps, kappa, sigma_T_sq, temp_gap, lambda) parameter tuples."""
    eps = 10.0 ** rng.uniform(-16, -10, n)
    kappa = 10.0 ** rng.uniform(-9, -7, n)
    s2 = 10.0 ** rng.uniform(-3, 0.5, n)
    gap = rng.uniform(-40.0, 40.0, n)
    lam = rng.uniform(0.0, 1.0, n)
    lam[rng.random(n) < 0.05] = 1.0
    lam[rng.random(n) < 0.05] = 0.0
    return eps, kappa, s2, gap, lam


def closed_form_beta(eps, kappa, s2, gap, lam):
    denom = lam * kappa**2 * s2**2 + (1 - lam) * (
        kappa**2 * (4 * gap**2 * s2 + 2 * s2**2) + eps
    )
    return np.clip((1 - lam) * eps / denom, 0.0, 1.0)


def fusion_cost_vec(beta, eps, kappa, s2, gap, lam):
    mu = kappa * s2 * beta
    var = eps * (1 - beta) ** 2 + kappa**2 * (4 * s2 * gap**2 + 2 * s2**2) * beta**2
    return lam * mu**2 + (1 - lam) * var


def golden_section_beta_vec(eps, kappa, s2, gap, lam, iters=120):
    """Vectorized golden-section minimizer of the fusion cost over [0, 1].

    Runs in extended precision: in float64 the objective is numerically flat
    within ~2e-9 of the optimum, too coarse to certify a 1e-9 tolerance.
    """
    eps = np.asarray(eps, dtype=np.longdouble)
    kappa = np.asarray(kappa, dtype=np.longdouble)
    s2 = np.asarray(s2, dtype=np.longdouble)
    gap = np.asarray(gap, dtype=np.longdouble)
    lam = np.asarray(lam, dtype=np.longdouble)
    phi = (np.sqrt(np.longdouble(5.0)) - 1) / 2
    a = np.zeros_like(eps)
    b = np.ones_like(eps)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = fusion_cost_vec(c, eps, kappa, s2, gap, lam)
    fd = fusion_cost_vec(d, eps, kappa, s2, gap, lam)
    for _ in range(iters):
        take = fc < fd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc = fusion_cost_vec(c, eps, kappa, s2, gap, lam)
        fd = fusion_cost_vec(d, eps, kappa, s2, gap, lam)
    return (0.5 * (a + b)).astype(float)


def brute_force_mixture_update(x, P, z, H, weights, covs):
    """Reference Gaussian-sum update: explicit weights and moment matching."""
    n = len(weights)
    logw = np.empty(n)
    means, posts = [], []
    for j in range(n):
        S = H @ P @ H.T + covs[j]
        v = z - H @ x
        logw[j] = np.log(weights[j]) - 0.5 * (
            v @ np.linalg.solve(S, v) + np.linalg.slogdet(S)[1] + 2.0 * np.log(2.0 * np.pi)
        )
        K = P @ H.T @ np.linalg.inv(S)
        xn = x + K @ v
        IKH = np.eye(2) - K @ H
        means.append(xn)
        posts.append(IKH @ P @ IKH.T + K @ covs[j] @ K.T)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = sum(w[j] * means[j] for j in range(n))
    cov = sum(w[j] * (posts[j] + np.outer(means[j] - mean, means[j] - mean)) for j in range(n))
    return w, mean, cov


# --------------------------------------------------------------------------
# Scalar Gaussian-sum / VB filter: the per-run implementation the batched
# tacd.netcomm path replaced, kept verbatim (np.linalg per 2x2 matrix) as the
# reference the batched filter must reproduce to 1e-12. vb_refine takes an
# optional list in which it records (iterations, converged) per call.

_DIM = 2
_LOG_2PI = np.log(2.0 * np.pi)
MIN_IW_DOF = 4.0
SPD_EIGENVALUE_FLOOR = 1e-30


@dataclass(frozen=True)
class GaussianBelief:
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class MixtureNoiseModel:
    dirichlet_concentration: np.ndarray
    iw_dof: np.ndarray
    iw_scale: np.ndarray
    dof_clamped: bool = False

    @property
    def num_components(self) -> int:
        return self.dirichlet_concentration.shape[0]

    @property
    def point_weights(self) -> np.ndarray:
        chi = self.dirichlet_concentration
        return chi / chi.sum()

    @property
    def point_covariances(self) -> np.ndarray:
        dof = np.maximum(self.iw_dof, MIN_IW_DOF)
        return self.iw_scale / (dof - (_DIM + 1.0))[:, None, None]


def enforce_spd(cov: np.ndarray, floor: float = SPD_EIGENVALUE_FLOOR) -> tuple[np.ndarray, bool]:
    """Symmetrize and floor eigenvalues; returns (matrix, whether flooring fired)."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= floor:
        return sym, False
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T, True


def gsf_predict(belief: GaussianBelief, ss) -> GaussianBelief:
    """Time update: mean' = A mean, P' = A P A^T + Q_v (symmetrized)."""
    mean = ss.A @ belief.mean
    cov = ss.A @ belief.cov @ ss.A.T + ss.Q_v
    return GaussianBelief(mean=mean, cov=0.5 * (cov + cov.T))


@dataclass
class GsfUpdateResult:
    belief: GaussianBelief
    epsilon: float
    responsibilities: np.ndarray
    underflow: bool = False
    spd_repairs: int = 0


def gsf_update(belief: GaussianBelief, z: np.ndarray, noise: MixtureNoiseModel, ss) -> GsfUpdateResult:
    """Measurement update: one Kalman update per mixture component, combined
    by posterior component weights and moment-matched to a single Gaussian.
    """
    H = ss.H
    x, P = belief.mean, belief.cov
    a = noise.point_weights
    covs = noise.point_covariances
    n = noise.num_components

    innov = z - H @ x
    PHt = P @ H.T
    means = np.empty((n, _DIM))
    posts = np.empty((n, _DIM, _DIM))
    logw = np.empty(n)
    eye = np.eye(_DIM)
    spd_repairs = 0

    for j in range(n):
        S = H @ PHt + covs[j]
        S = 0.5 * (S + S.T)
        sign, logdet = np.linalg.slogdet(S)
        if sign <= 0:
            logw[j] = -np.inf
            means[j] = x
            posts[j] = P
            continue
        Sinv_innov = np.linalg.solve(S, innov)
        with np.errstate(over="ignore", invalid="ignore"):
            logw[j] = np.log(a[j]) - 0.5 * (innov @ Sinv_innov + logdet + _DIM * _LOG_2PI)
        K = np.linalg.solve(S, PHt.T).T
        means[j] = x + K @ innov
        # Joseph form keeps the per-component covariance symmetric PSD
        IKH = eye - K @ H
        posts[j] = IKH @ P @ IKH.T + K @ covs[j] @ K.T

    underflow = not np.any(np.isfinite(logw))
    if underflow:
        w = np.full(n, 1.0 / n)
    else:
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()

    mean = w @ means
    dev = means - mean
    cov = np.einsum("j,jab->ab", w, posts) + np.einsum("j,ja,jb->ab", w, dev, dev)
    cov, repaired = enforce_spd(cov)
    spd_repairs += int(repaired)

    out = GaussianBelief(mean=mean, cov=cov)
    return GsfUpdateResult(
        belief=out,
        epsilon=float(cov[0, 0]),
        responsibilities=w,
        underflow=underflow,
        spd_repairs=spd_repairs,
    )


def vb_refine(noise: MixtureNoiseModel, z, belief: GaussianBelief, ss, settings, log: Optional[list] = None):
    """Conjugate mean-field refinement of the noise mixture for one period."""
    rho = settings.forgetting_factor
    chi_pred = rho * noise.dirichlet_concentration
    dof_pred = rho * noise.iw_dof + (1.0 - rho) * MIN_IW_DOF
    scale_pred = rho * noise.iw_scale

    resid = z - ss.H @ belief.mean
    S = np.outer(resid, resid) + ss.H @ belief.cov @ ss.H.T

    chi, dof, scale = chi_pred, dof_pred, scale_pred.copy()
    q_prev: Optional[np.ndarray] = None
    converged = False
    for it in range(settings.max_iterations):
        e_logdet_prec = (
            digamma(0.5 * dof)
            + digamma(0.5 * (dof - 1.0))
            + _DIM * np.log(2.0)
            - np.array([np.linalg.slogdet(V)[1] for V in scale])
        )
        e_log_pi = digamma(chi) - digamma(chi.sum())
        tr_term = dof * np.array([np.trace(np.linalg.solve(V, S)) for V in scale])
        logq = e_log_pi + 0.5 * e_logdet_prec - 0.5 * tr_term
        logq -= logq.max()
        q = np.exp(logq)
        q /= q.sum()

        chi = chi_pred + q
        dof = dof_pred + q
        scale = scale_pred + q[:, None, None] * S

        if q_prev is not None and np.max(np.abs(q - q_prev)) < settings.convergence_tol:
            converged = True
            break
        q_prev = q
    if log is not None:
        log.append((it + 1, converged))

    return MixtureNoiseModel(
        dirichlet_concentration=chi,
        iw_dof=dof,
        iw_scale=scale,
        dof_clamped=bool(np.any(dof <= _DIM + 1)),
    )


class ScalarGsfVbFilter:
    """One run of the alternating state / noise estimator, stepped on z."""

    def __init__(self, ss, noise: MixtureNoiseModel, belief: GaussianBelief, vb=None):
        self.ss = ss
        self.noise = noise
        self.belief = belief
        self.vb = vb
        self.spd_repairs = 0
        self.underflow_periods = 0
        self.vb_log: list = []

    def step(self, z: np.ndarray) -> GsfUpdateResult:
        self.belief = gsf_predict(self.belief, self.ss)
        upd = gsf_update(self.belief, z, self.noise, self.ss)
        self.belief = upd.belief
        self.spd_repairs += upd.spd_repairs
        self.underflow_periods += int(upd.underflow)
        if self.vb is not None:
            self.noise = vb_refine(self.noise, z, self.belief, self.ss, self.vb, self.vb_log)
        return upd

    def condition_on_skew(self, skew: float) -> None:
        mean = self.belief.mean.copy()
        mean[0] = skew
        self.belief = replace(self.belief, mean=mean)


# Scenario generation as it was before the draw loop kept only the RNG
# draws (one period at a time, every helper called per period), copied
# verbatim with the scalar helpers and records it used, so the array form
# can be checked against it bit for bit.
_NOISE_CORR_CHOL = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))


@dataclass(frozen=True)
class ClockParams:
    """Skew/offset pair of a clock at one period. Skew is dimensionless (s/s)."""

    skew: float
    offset: float

    def __post_init__(self) -> None:
        if not abs(self.skew) < 1.0:
            raise ValueError(f"skew must satisfy |skew| < 1, got {self.skew}")


@dataclass(frozen=True)
class ExchangeRecord:
    """Four timestamps of one two-way exchange at period k (local timeline)."""

    t1: float
    t2: float
    t3: float
    t4: float
    period_index: int

    def __post_init__(self) -> None:
        if not self.t4 > self.t1:
            raise ValueError("t4 must follow t1 on the local timeline")


def _segment_at(profile: ThermalProfile, k: int) -> ThermalSegment:
    for seg in profile.segments:
        if seg.start <= k <= seg.end:
            return seg
    raise ValueError(f"no thermal segment covers period {k}")


def sample_measurement_noise(
    weights: Sequence[float],
    stddevs: Sequence[float],
    rng: np.random.Generator,
    size: Optional[int] = None,
) -> np.ndarray:
    """Draw the two-component measurement noise vector from the mixture.

    A component j is selected with probability weights[j]; the vector is
    zero-mean with covariance stddevs[j]^2 * [[1, 0.5], [0.5, 1]]. With
    `size` given, returns (size, 2) i.i.d. draws.
    """
    w = np.asarray(weights, dtype=float)
    s = np.asarray(stddevs, dtype=float)
    if size is None:
        j = int(np.searchsorted(np.cumsum(w), rng.random() * w.sum(), side="right"))
        j = min(j, len(w) - 1)
        return s[j] * (_NOISE_CORR_CHOL @ rng.standard_normal(2))
    comps = np.searchsorted(np.cumsum(w), rng.random(size) * w.sum(), side="right")
    comps = np.minimum(comps, len(w) - 1)
    return s[comps, None] * (rng.standard_normal((size, 2)) @ _NOISE_CORR_CHOL.T)


def temperature_at(
    profile: ThermalProfile, k: int, rng: Optional[np.random.Generator] = None
) -> float:
    """External temperature at period k (degC); colored-noise segments draw from rng."""
    seg = _segment_at(profile, k)
    p = seg.params
    if seg.kind == "constant":
        return float(p.get("value", 30.0))
    if seg.kind == "multimodal":
        amp = p.get("amp", 1.1)
        quad = p.get("quad", 0.005)
        offset = p.get("offset", 40.0)
        return amp * np.sin(2.0 * k + np.pi) - quad * (2.0 * k + 2.0) ** 2 + offset
    if seg.kind == "colored-noise":
        if rng is None:
            raise ValueError("colored-noise segment requires an rng")
        mean = p.get("mean", 20.0)
        var = p.get("var_base", 0.02) + (k - p.get("var_ref_k", 30.0)) * p.get("var_slope", 1e-2)
        if var <= 0.0:
            raise ValueError(f"colored-noise variance is non-positive ({var}) at period {k}")
        return mean + rng.standard_normal() * np.sqrt(var)
    # first-order
    return p.get("slope", 1.0) * k + p.get("intercept", -30.0)


def oscillator_temp_step(t_osc_prev: float, t_ext_now: float, cooling_constant: float, dt: float = 1.0) -> float:
    """Newton cooling relaxation of the oscillator temperature toward ambient."""
    if cooling_constant <= 0.0:
        raise ValueError("cooling_constant must be > 0")
    return t_ext_now + (t_osc_prev - t_ext_now) * np.exp(-dt / cooling_constant)


def simulate_exchange(
    truth: ClockParams,
    link: LinkConfig,
    w1: float,
    w2: float,
    k: int,
    tau: float,
    turnaround: Optional[float] = None,
) -> ExchangeRecord:
    """Build the period-k exchange timestamps.

    t1 and t4 sit on the local timeline at k*tau and k*tau + turnaround
    (default tau/100, small enough that the offset is constant within the
    period). w1, w2 are the random one-way delay parts; in synthetic mode
    they are deviations from the fixed part and may be negative.
    """
    if turnaround is None:
        turnaround = tau / 100.0
    t1 = k * tau
    t4 = t1 + turnaround
    t2 = t1 + link.d1 + w1 + truth.offset
    t3 = t4 - link.d2 - w2 + truth.offset
    return ExchangeRecord(t1=t1, t2=t2, t3=t3, t4=t4, period_index=k)


@dataclass
class ScenarioData:
    """One run's ground truth: per-period states, temperatures, and exchanges."""

    tau: float
    skew_true: np.ndarray
    offset_true: np.ndarray
    temp_ext: np.ndarray
    temp_osc: np.ndarray
    temp_meas: np.ndarray
    records: list[ExchangeRecord]
    link: LinkConfig
    pdv_weights: Optional[np.ndarray]
    pdv_stddevs: Optional[np.ndarray]

    @property
    def horizon(self) -> int:
        return len(self.records)


def generate_scenario(cfg: ScenarioConfig, rng: np.random.Generator) -> ScenarioData:
    """Generate one seeded run: truth trajectories plus exchange records.

    The per-period draw order is fixed (skew residual, mixture component and
    noise vector or empirical delays, external temperature, sensor noise) so
    a given (config, seed) reproduces bit-identical records.
    """
    h = cfg.horizon
    model = cfg.temp_model
    truth = cfg.truth

    if cfg.empirical is not None:
        src = cfg.empirical
        fwd = src.table.samples(*src.forward_cell)
        rev = src.table.samples(*src.reverse_cell)
        link = LinkConfig(d1=float(fwd[0]), d2=float(rev[0]))
        weights_tbl = stddevs_tbl = None
    else:
        link = cfg.link
        weights_tbl, stddevs_tbl = pdv_params_table(cfg.pdv, h)

    skew = np.empty(h)
    offset = np.empty(h)
    t_ext = np.empty(h)
    t_osc = np.empty(h)
    t_meas = np.empty(h)
    records: list[ExchangeRecord] = []

    sig_u = np.sqrt(truth.process_noise_sq)
    sig_T = np.sqrt(model.sigma_T_sq)
    gamma = truth.initial_skew_residual
    w1_prev = 0.0

    for k in range(h):
        u_k = rng.standard_normal() * sig_u
        if k > 0:
            gamma = cfg.gm_coefficient * gamma + u_k

        if cfg.empirical is not None:
            w1 = float(fwd[rng.integers(len(fwd))]) - link.d1
            w2 = float(rev[rng.integers(len(rev))]) - link.d2
        else:
            n_k = sample_measurement_noise(weights_tbl[k], stddevs_tbl[k], rng)
            w1 = w1_prev + n_k[0] if k > 0 else 0.0
            w2 = w1 - n_k[1]
        w1_prev = w1

        t_ext[k] = temperature_at(cfg.thermal, k, rng)
        if k == 0:
            t_osc[k] = cfg.thermal.initial_oscillator_temp
        else:
            t_osc[k] = oscillator_temp_step(t_osc[k - 1], t_ext[k], cfg.thermal.cooling_constant)
        t_meas[k] = t_osc[k] + rng.standard_normal() * sig_T

        if truth.thermal_coupling:
            dT = t_osc[k] - model.T0
            skew[k] = model.theta0 + model.kappa * dT * dT + gamma
        else:
            skew[k] = gamma
        offset[k] = truth.initial_offset if k == 0 else offset[k - 1] + cfg.tau * skew[k]

        records.append(
            simulate_exchange(
                ClockParams(skew=skew[k], offset=offset[k]), link, w1, w2, k, cfg.tau
            )
        )

    return ScenarioData(
        tau=cfg.tau,
        skew_true=skew,
        offset_true=offset,
        temp_ext=t_ext,
        temp_osc=t_osc,
        temp_meas=t_meas,
        records=records,
        link=link,
        pdv_weights=weights_tbl,
        pdv_stddevs=stddevs_tbl,
    )


# The Fisher-bound recursions as they were before the fusion bound took an
# (R, h) alpha: one run per call on the full 2x2 (skew, temperature)
# information, FusionBclbParams.alpha_at inlined as _alpha_at, otherwise
# verbatim. The library keeps only the skew entry, which no temperature
# term enters.


@dataclass(frozen=True)
class FusionBclbParams:
    """Inputs of the fusion-bound recursion: one weight or a per-period
    alpha sequence, and the temperature-block variances."""

    alpha: Union[float, Sequence[float], np.ndarray]
    sigma_m_sq: float
    sigma_T_sq: float

    def __post_init__(self) -> None:
        if self.sigma_m_sq <= 0.0:
            raise ValueError("sigma_m_sq must be > 0")
        if self.sigma_T_sq <= 0.0:
            raise ValueError("sigma_T_sq must be > 0")


def _alpha_at(params, k: int) -> float:
    if np.isscalar(params.alpha):
        return float(params.alpha)
    return float(params.alpha[k])


def _mixture_data_term(weights: np.ndarray, stddevs: np.ndarray, tau: float) -> float:
    """Measurement information term tau^2 * (sum b/Lambda^3) / (sum b/Lambda)."""
    lam = np.asarray(stddevs, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("mixture stddevs must be > 0")
    b = np.asarray(weights, dtype=float)
    return tau**2 * float(np.sum(b / lam**3) / np.sum(b / lam))


def fisher_step_linear(
    j_prev: float, dyn: ClockDynamics, weights: np.ndarray, stddevs: np.ndarray
) -> float:
    """One step of the linear-model skew Fisher recursion.

    J_k = 1/sigma_u^2 - (m/sigma_u^2)(J_{k-1} + m^2/sigma_u^2)^{-1}(m/sigma_u^2)
          + tau^2 (sum b/Lambda^3)/(sum b/Lambda)
    """
    if j_prev <= 0.0:
        raise ValueError("J_prev must be > 0")
    s = dyn.sigma_u_sq
    m = dyn.m
    prior = 1.0 / s - (m / s) ** 2 / (j_prev + m * m / s)
    return prior + _mixture_data_term(weights, stddevs, dyn.tau)


def fisher_step_fusion(
    j_prev: np.ndarray,
    dyn: ClockDynamics,
    weights: np.ndarray,
    stddevs: np.ndarray,
    params: FusionBclbParams,
    alpha_prev: float,
    alpha_now: float,
) -> np.ndarray:
    """One step of the fusion-model Fisher recursion on the 2x2 (skew, temp) state.

    Every Fisher component is diagonal and the recursion preserves
    diagonality, so the two blocks propagate independently. The skew block is

    J = 1/(a_{k-1}^2 s) - (m/(a_{k-1} s))(J + m^2/s)^{-1}(m/(a_{k-1} s))
        + tau^2 (sum b/L^3)/(a_k^2 sum b/L)

    which reduces to the linear-model recursion bit-for-bit at alpha = 1.
    """
    if not (0.0 < alpha_prev <= 1.0 and 0.0 < alpha_now <= 1.0):
        raise ValueError("alpha weights must lie in (0, 1]")
    J = np.asarray(j_prev, dtype=float)
    if J.shape != (2, 2):
        raise ValueError("fusion Fisher matrix must be 2x2")
    if J[0, 0] <= 0.0 or J[1, 1] <= 0.0:
        raise ValueError("fusion Fisher matrix must have positive diagonal")
    s = dyn.sigma_u_sq
    m = dyn.m
    sm = params.sigma_m_sq
    as_ = alpha_prev * s
    j_skew = (
        1.0 / (alpha_prev * as_)
        - (m / as_) ** 2 / (J[0, 0] + m * m / s)
        + _mixture_data_term(weights, stddevs, dyn.tau) / (alpha_now * alpha_now)
    )
    j_temp = 1.0 / sm - (1.0 / sm) ** 2 / (J[1, 1] + 1.0 / sm) + 1.0 / params.sigma_T_sq
    return np.diag([j_skew, j_temp])


def bclb_trajectory(
    oracle: OracleNoiseTruth,
    dyn: ClockDynamics,
    params: Optional[FusionBclbParams],
    p0_skew: float,
    horizon: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-period (BCLB_linear, BCLB_fusion) sequences of length horizon.

    Information starts at 1/P0_skew at k = 0 (the prior variance is the
    period-0 bound); each later period applies the recursions with that
    period's oracle mixture. The fusion sequence is NaN when params is None.
    """
    if p0_skew <= 0.0:
        raise ValueError("P0 skew variance must be > 0")
    h = oracle.horizon if horizon is None else horizon
    if h > oracle.horizon:
        raise ValueError("horizon exceeds the oracle table")
    bclb_l = np.empty(h)
    bclb_f = np.full(h, np.nan)

    j_lin = 1.0 / p0_skew
    if params is not None:
        j_fus = np.diag([1.0 / p0_skew, 1.0 / params.sigma_m_sq])
    for k in range(h):
        if k > 0:
            j_lin = fisher_step_linear(j_lin, dyn, oracle.weights[k], oracle.stddevs[k])
            if params is not None:
                j_fus = fisher_step_fusion(
                    j_fus,
                    dyn,
                    oracle.weights[k],
                    oracle.stddevs[k],
                    params,
                    _alpha_at(params, k - 1),
                    _alpha_at(params, k),
                )
        bclb_l[k] = 1.0 / j_lin
        if params is not None:
            bclb_f[k] = 1.0 / j_fus[0, 0]
    return bclb_l, bclb_f
