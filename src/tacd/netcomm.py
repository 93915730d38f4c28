"""Network-communication phase estimators.

Clock skew and offset are estimated from two-way timestamp exchanges by a
Gaussian-sum filter whose measurement-noise mixture is refined each period
with conjugate Dirichlet / inverse-Wishart mean-field updates (partial
variational Bayes). Plain gPTP arithmetic and a fixed-noise Kalman filter
are provided as baselines.

Every estimator takes an optional leading run axis: means are (..., 2),
covariances (..., 2, 2), mixture weights (..., N_g) and mixture scales
(..., N_g, 2, 2). An unbatched call is the () case. The 2x2 algebra is
written out entry by entry and sums over mixture components run in a fixed
order, so each run's result is bit-identical whatever batch it is in.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import digamma

from .clock import StateSpace
from .scenario import ExchangeBatch

_DIM = 2
_LOG_2PI = np.log(2.0 * np.pi)
# Smallest inverse-Wishart dof with a finite mean margin for 2x2 matrices;
# dofs at or below dim+1 are clamped here when the point covariance is formed.
MIN_IW_DOF = 4.0
SPD_EIGENVALUE_FLOOR = 1e-30
# A closed-form minimum eigenvalue this close to the floor (relative to the
# largest eigenvalue) is re-checked with eigh, which makes the final call.
_EIG_RECHECK = 1e-12


# ------------------------------------------------------------- 2x2 algebra
# A symmetric matrix is handled as its entries (a, b, d) = ([0,0], [0,1],
# [1,1]), a general one as (m00, m01, m10, m11); entries broadcast.

def _entries(M: np.ndarray):
    return M[..., 0, 0], M[..., 0, 1], M[..., 1, 1]


def _general(M: np.ndarray):
    return M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]


def _matrix(a, b, d) -> np.ndarray:
    """Symmetric (..., 2, 2) array from its entries."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(d)) + (_DIM, _DIM))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = b
    out[..., 1, 1] = d
    return out


def _congruence(T, a, b, d):
    """Entries of T M T^T for a general T and a symmetric M = (a, b, d)."""
    t00, t01, t10, t11 = T
    u00 = t00 * a + t01 * b
    u01 = t00 * b + t01 * d
    u10 = t10 * a + t11 * b
    u11 = t10 * b + t11 * d
    return u00 * t00 + u01 * t01, u00 * t10 + u01 * t11, u10 * t10 + u11 * t11


def _component_sum(x: np.ndarray):
    """Sum over the last (mixture component) axis, in index order."""
    total = x[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + x[..., j]
    return total


@dataclass(frozen=True)
class GaussianBelief:
    """Posterior state belief: mean (skew s/s, offset s) and 2x2 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape[-1:] != (_DIM,) or cov.shape != mean.shape + (_DIM,):
            raise ValueError("belief must be a 2-vector mean with 2x2 covariance")
        if np.any(cov[..., 0, 0] <= 0.0) or np.any(cov[..., 1, 1] <= 0.0):
            raise ValueError("covariance diagonal must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class VbSettings:
    """Mean-field iteration controls for the noise-model refinement."""

    max_iterations: int = 5
    convergence_tol: float = 1e-6
    forgetting_factor: float = 0.95

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ValueError("forgetting_factor must be in (0, 1]")


@dataclass(frozen=True)
class MixtureNoiseModel:
    """Dirichlet / inverse-Wishart hyperparameters of the GMM measurement noise.

    point_weights and point_covariances are the plug-in values used by the
    Gaussian-sum filter: the Dirichlet mean and the inverse-Wishart mean
    V / (dof - 3) with dof clamped at MIN_IW_DOF when the mean would not
    exist. dof_clamped says whether that clamp applies in any run.
    """

    dirichlet_concentration: np.ndarray
    iw_dof: np.ndarray
    iw_scale: np.ndarray
    dof_clamped: bool = False

    def __post_init__(self) -> None:
        chi = np.asarray(self.dirichlet_concentration, dtype=float)
        dof = np.asarray(self.iw_dof, dtype=float)
        scale = np.asarray(self.iw_scale, dtype=float)
        if dof.shape != chi.shape or scale.shape != chi.shape + (_DIM, _DIM):
            raise ValueError("hyperparameter shapes disagree on the component count")
        if np.any(chi <= 0.0):
            raise ValueError("Dirichlet concentrations must be > 0")
        object.__setattr__(self, "dirichlet_concentration", chi)
        object.__setattr__(self, "iw_dof", dof)
        object.__setattr__(self, "iw_scale", scale)

    @property
    def num_components(self) -> int:
        return self.dirichlet_concentration.shape[-1]

    @property
    def point_weights(self) -> np.ndarray:
        chi = self.dirichlet_concentration
        return chi / _component_sum(chi)[..., None]

    @property
    def point_covariances(self) -> np.ndarray:
        dof = np.maximum(self.iw_dof, MIN_IW_DOF)
        return self.iw_scale / (dof - (_DIM + 1.0))[..., None, None]

    @classmethod
    def from_point_estimates(cls, weights, stddevs) -> "MixtureNoiseModel":
        """Sharp model with the given weights and per-component stddevs."""
        w = np.asarray(weights, dtype=float)
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        scale = np.array([(s * s) * corr for s in np.asarray(stddevs, dtype=float)])
        dof = np.full(w.shape, MIN_IW_DOF)
        return cls(dirichlet_concentration=w * 100.0, iw_dof=dof, iw_scale=scale)


def isotropic_mixture_model(chi, dof, scale_diag, unit_scale: float = 1e-6) -> MixtureNoiseModel:
    """Model with per-component isotropic scales V_i = s_i * unit_scale^2 * I."""
    scale = np.array([s * unit_scale**2 * np.eye(_DIM) for s in np.asarray(scale_diag, dtype=float)])
    return MixtureNoiseModel(
        dirichlet_concentration=np.asarray(chi, dtype=float),
        iw_dof=np.asarray(dof, dtype=float),
        iw_scale=scale,
        dof_clamped=bool(np.any(np.asarray(dof) <= _DIM + 1)),
    )


def _require_consecutive(current: ExchangeBatch, previous: ExchangeBatch) -> None:
    gap = np.asarray(current.period_index) != np.asarray(previous.period_index) + 1
    if np.any(gap):
        i = np.unravel_index(np.argmax(gap), gap.shape)
        raise ValueError(
            f"exchanges must come from consecutive periods, got "
            f"{np.asarray(previous.period_index)[i]} then {np.asarray(current.period_index)[i]}"
        )


def build_measurement(current: ExchangeBatch, previous: ExchangeBatch, d) -> np.ndarray:
    """Measurement vector from two consecutive exchanges, shaped (..., 2).

    z = (t2_k - t2_{k-1} - t1_k + t1_{k-1},  t2_k + t3_k - t1_k - t4_k - d)

    The exchanges may have any leading shape; z gains a last axis of 2.
    """
    _require_consecutive(current, previous)
    z1 = current.t2 - previous.t2 - current.t1 + previous.t1
    z2 = current.t2 + current.t3 - current.t1 - current.t4 - d
    return np.stack([z1, z2], axis=-1)


def gptp_offset(rec: ExchangeBatch, d):
    """Plain two-way offset estimate: ((t2 + t3 - t1 - t4) - d) / 2."""
    return ((rec.t2 + rec.t3 - rec.t1 - rec.t4) - d) / 2.0


def gptp_skew(current: ExchangeBatch, previous: ExchangeBatch, tau: float):
    """Plain forward-path skew estimate from consecutive exchanges."""
    _require_consecutive(current, previous)
    return (current.t2 - previous.t2 - current.t1 + previous.t1) / tau


def enforce_spd(cov: np.ndarray, floor: float = SPD_EIGENVALUE_FLOOR) -> tuple[np.ndarray, bool]:
    """Symmetrize one 2x2 matrix and floor its eigenvalues; returns (matrix,
    whether flooring fired)."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= floor:
        return sym, False
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T, True


def _spd_repaired(a, b, d) -> tuple[np.ndarray, np.ndarray]:
    """Covariance from symmetric entries with the eigenvalue floor enforced.

    The closed-form minimum eigenvalue det / lambda_max screens the runs;
    only those near or below the floor go through enforce_spd.
    """
    cov = _matrix(a, b, d)
    repaired = np.zeros(cov.shape[:-2], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) * (a - d) + b * b)
        lo = (a * d - b * b) / hi
        suspect = ~(lo >= SPD_EIGENVALUE_FLOOR + _EIG_RECHECK * hi)
    if np.any(suspect):
        for i in np.ndindex(suspect.shape):
            if suspect[i]:
                cov[i], repaired[i] = enforce_spd(cov[i])
    return cov, repaired


def gsf_predict(belief: GaussianBelief, ss: StateSpace) -> GaussianBelief:
    """Time update: mean' = A mean, P' = A P A^T + Q_v."""
    a00, a01, a10, a11 = _general(ss.A)
    x0, x1 = belief.mean[..., 0], belief.mean[..., 1]
    mean = np.stack([a00 * x0 + a01 * x1, a10 * x0 + a11 * x1], axis=-1)
    c00, c01, c11 = _congruence((a00, a01, a10, a11), *_entries(belief.cov))
    q00, q01, q11 = _entries(ss.Q_v)
    return GaussianBelief(mean=mean, cov=_matrix(c00 + q00, c01 + q01, c11 + q11))


@dataclass
class GsfUpdateResult:
    """One measurement update. underflow_runs / repaired_runs flag each run;
    underflow and spd_repairs count the flagged runs of the batch."""

    belief: GaussianBelief
    epsilon: np.ndarray
    responsibilities: np.ndarray
    underflow_runs: np.ndarray
    repaired_runs: np.ndarray

    @property
    def underflow(self) -> int:
        return int(np.count_nonzero(self.underflow_runs))

    @property
    def spd_repairs(self) -> int:
        return int(np.count_nonzero(self.repaired_runs))


def gsf_update(
    belief: GaussianBelief, z: np.ndarray, noise: MixtureNoiseModel, ss: StateSpace
) -> GsfUpdateResult:
    """Measurement update: one Kalman update per mixture component, combined
    by posterior component weights and moment-matched to a single Gaussian.

    epsilon is the (skew, skew) entry of the returned covariance. A
    component whose innovation covariance has a non-positive determinant
    gets weight zero. In a run where every component likelihood underflows,
    the weights fall back to uniform and the run is flagged.
    """
    h00, h01, h10, h11 = _general(ss.H)
    x0, x1 = belief.mean[..., 0, None], belief.mean[..., 1, None]
    p00, p01, p11 = (e[..., None] for e in _entries(belief.cov))
    r00, r01, r11 = _entries(noise.point_covariances)
    w = noise.point_weights
    n = noise.num_components

    v0 = z[..., 0, None] - (h00 * x0 + h01 * x1)
    v1 = z[..., 1, None] - (h10 * x0 + h11 * x1)
    # G = P H^T, then the innovation covariance H G + R_j of every component
    g00 = p00 * h00 + p01 * h01
    g01 = p00 * h10 + p01 * h11
    g10 = p01 * h00 + p11 * h01
    g11 = p01 * h10 + p11 * h11
    s00 = (h00 * g00 + h01 * g10) + r00
    s01 = (h00 * g01 + h01 * g11) + r01
    s11 = (h10 * g01 + h11 * g11) + r11
    det = s00 * s11 - s01 * s01

    # a singular component, or a run whose likelihoods all underflow, goes
    # through the same arithmetic and is overwritten below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quad = (s11 * (v0 * v0) - s01 * (2.0 * v0 * v1) + s00 * (v1 * v1)) / det
        logw = np.log(w) - 0.5 * (quad + np.log(det) + _DIM * _LOG_2PI)
        # gain K = G S^-1 and the component posterior means
        k00 = (g00 * s11 - g01 * s01) / det
        k01 = (g01 * s00 - g00 * s01) / det
        k10 = (g10 * s11 - g11 * s01) / det
        k11 = (g11 * s00 - g10 * s01) / det
        m0 = x0 + (k00 * v0 + k01 * v1)
        m1 = x1 + (k10 * v0 + k11 * v1)
        # Joseph form (I - K H) P (I - K H)^T + K R K^T keeps each component PSD
        ikh = (
            1.0 - (k00 * h00 + k01 * h10),
            -(k00 * h01 + k01 * h11),
            -(k10 * h00 + k11 * h10),
            1.0 - (k10 * h01 + k11 * h11),
        )
        j00, j01, j11 = _congruence(ikh, p00, p01, p11)
        n00, n01, n11 = _congruence((k00, k01, k10, k11), r00, r01, r11)
        c00, c01, c11 = j00 + n00, j01 + n01, j11 + n11

        singular = det <= 0.0
        if np.any(singular):
            logw = np.where(singular, -np.inf, logw)
            m0, m1 = np.where(singular, x0, m0), np.where(singular, x1, m1)
            c00, c01, c11 = (np.where(singular, p, c) for p, c in ((p00, c00), (p01, c01), (p11, c11)))

        underflow = ~np.any(np.isfinite(logw), axis=-1)
        wts = np.exp(logw - np.max(logw, axis=-1, keepdims=True))
        wts = wts / _component_sum(wts)[..., None]
        if np.any(underflow):
            wts = np.where(underflow[..., None], 1.0 / n, wts)

        mean0 = _component_sum(wts * m0)
        mean1 = _component_sum(wts * m1)
        e0, e1 = m0 - mean0[..., None], m1 - mean1[..., None]
        cov, repaired = _spd_repaired(
            _component_sum(wts * (c00 + e0 * e0)),
            _component_sum(wts * (c01 + e0 * e1)),
            _component_sum(wts * (c11 + e1 * e1)),
        )
    return GsfUpdateResult(
        belief=GaussianBelief(mean=np.stack([mean0, mean1], axis=-1), cov=cov),
        epsilon=cov[..., 0, 0],
        responsibilities=wts,
        underflow_runs=underflow,
        repaired_runs=repaired,
    )


def vb_refine(
    noise: MixtureNoiseModel,
    z: np.ndarray,
    belief: GaussianBelief,
    ss: StateSpace,
    settings: VbSettings,
) -> MixtureNoiseModel:
    """Conjugate mean-field refinement of the noise mixture for one period.

    Hyperparameters are first discounted by the forgetting factor (the
    prediction distribution for the non-stationary noise), then updated with
    the responsibility-weighted residual statistic
    S = (z - H x)(z - H x)^T + H P H^T built from the current posterior.
    Convergence is judged per run: a converged run keeps its values while
    the others iterate on, up to max_iterations.
    """
    rho = settings.forgetting_factor
    chi_pred = rho * noise.dirichlet_concentration
    dof_pred = rho * noise.iw_dof + (1.0 - rho) * MIN_IW_DOF
    scale_pred = [rho * e for e in _entries(noise.iw_scale)]

    H = _general(ss.H)
    x0, x1 = belief.mean[..., 0], belief.mean[..., 1]
    r0 = z[..., 0] - (H[0] * x0 + H[1] * x1)
    r1 = z[..., 1] - (H[2] * x0 + H[3] * x1)
    h00, h01, h11 = _congruence(H, *_entries(belief.cov))
    s00, s01, s11 = ((r0 * r0 + h00)[..., None], (r0 * r1 + h01)[..., None], (r1 * r1 + h11)[..., None])
    stat = (s00, s01, s11)

    chi, dof, scale = chi_pred, dof_pred, scale_pred
    active = np.ones(chi.shape[:-1], dtype=bool)
    q_prev = None
    for _ in range(settings.max_iterations):
        v00, v01, v11 = scale
        det = v00 * v11 - v01 * v01
        e_logdet_prec = (
            digamma(0.5 * dof) + digamma(0.5 * (dof - 1.0)) + _DIM * np.log(2.0) - np.log(np.abs(det))
        )
        e_log_pi = digamma(chi) - digamma(_component_sum(chi))[..., None]
        tr_term = dof * ((v11 * s00 - 2.0 * v01 * s01 + v00 * s11) / det)
        logq = e_log_pi + 0.5 * e_logdet_prec - 0.5 * tr_term
        q = np.exp(logq - np.max(logq, axis=-1, keepdims=True))
        q = q / _component_sum(q)[..., None]

        new_chi, new_dof, new_scale = chi_pred + q, dof_pred + q, [p + q * s for p, s in zip(scale_pred, stat)]
        if not np.all(active):
            keep = active[..., None]
            new_chi, new_dof = np.where(keep, new_chi, chi), np.where(keep, new_dof, dof)
            new_scale = [np.where(keep, a, b) for a, b in zip(new_scale, scale)]
        chi, dof, scale = new_chi, new_dof, new_scale
        if q_prev is not None:
            active = active & ~(np.max(np.abs(q - q_prev), axis=-1) < settings.convergence_tol)
            if not np.any(active):
                break
        q_prev = q

    return MixtureNoiseModel(
        dirichlet_concentration=chi,
        iw_dof=dof,
        iw_scale=_matrix(*scale),
        dof_clamped=bool(np.any(dof <= _DIM + 1)),
    )


@dataclass
class StepResult:
    belief: GaussianBelief
    epsilon: np.ndarray
    skew: np.ndarray
    offset: np.ndarray
    responsibilities: np.ndarray


class GsfVbFilter:
    """Alternating state / noise estimator over a stream of exchanges.

    Each period: predict, Gaussian-sum update, then (when VB settings are
    given) one round of noise-model refinement. With a single component and
    VB disabled the trajectory coincides with a textbook Kalman filter.
    spd_repairs and underflow_periods count per run.
    """

    def __init__(
        self,
        ss: StateSpace,
        noise: MixtureNoiseModel,
        belief: GaussianBelief,
        vb: Optional[VbSettings] = None,
    ):
        self.ss = ss
        self.noise = noise
        self.belief = belief
        self.vb = vb
        self.spd_repairs = np.zeros(belief.mean.shape[:-1], dtype=int)
        self.underflow_periods = np.zeros(belief.mean.shape[:-1], dtype=int)

    def step(self, z) -> StepResult:
        """Advance one period on the measurement z, shaped (..., 2) (see
        build_measurement)."""
        z = np.asarray(z, dtype=float)
        self.belief = gsf_predict(self.belief, self.ss)
        upd = gsf_update(self.belief, z, self.noise, self.ss)
        self.belief = upd.belief
        self.spd_repairs += upd.repaired_runs
        self.underflow_periods += upd.underflow_runs
        if self.vb is not None:
            self.noise = vb_refine(self.noise, z, self.belief, self.ss, self.vb)
        return StepResult(
            belief=self.belief,
            epsilon=upd.epsilon,
            skew=self.belief.mean[..., 0],
            offset=self.belief.mean[..., 1],
            responsibilities=upd.responsibilities,
        )

    def condition_on_skew(self, skew) -> None:
        """Replace the belief-mean skew entry, leaving the covariance alone."""
        mean = self.belief.mean.copy()
        mean[..., 0] = skew
        self.belief = replace(self.belief, mean=mean)


class KalmanBaseline:
    """Textbook Kalman filter with a fixed single-Gaussian measurement noise.

    Written out directly (no mixture machinery) so it doubles as an
    independent cross-check of the Gaussian-sum path.
    """

    def __init__(self, ss: StateSpace, r_fixed: np.ndarray, belief: GaussianBelief):
        self.ss = ss
        self.R = np.asarray(r_fixed, dtype=float)
        self.x = belief.mean.copy()
        self.P = belief.cov.copy()

    def step(self, z) -> StepResult:
        """Advance one period on the measurement z, as GsfVbFilter.step."""
        z = np.asarray(z, dtype=float)
        A, H = _general(self.ss.A), _general(self.ss.H)
        q00, q01, q11 = _entries(self.ss.Q_v)
        r00, r01, r11 = _entries(self.R)
        x0, x1 = self.x[..., 0], self.x[..., 1]
        xp0, xp1 = A[0] * x0 + A[1] * x1, A[2] * x0 + A[3] * x1
        a, b, c = _congruence(A, *_entries(self.P))
        a, b, c = a + q00, b + q01, c + q11
        # S = H P H^T + R; K = P H^T S^-1
        f00, f01, f10, f11 = a * H[0] + b * H[1], a * H[2] + b * H[3], b * H[0] + c * H[1], b * H[2] + c * H[3]
        s00, s01, s11 = _congruence(H, a, b, c)
        s00, s01, s11 = s00 + r00, s01 + r01, s11 + r11
        det = s00 * s11 - s01 * s01
        K = ((f00 * s11 - f01 * s01) / det, (f01 * s00 - f00 * s01) / det,
             (f10 * s11 - f11 * s01) / det, (f11 * s00 - f10 * s01) / det)
        y0 = z[..., 0] - (H[0] * xp0 + H[1] * xp1)
        y1 = z[..., 1] - (H[2] * xp0 + H[3] * xp1)
        self.x = np.stack([xp0 + (K[0] * y0 + K[1] * y1), xp1 + (K[2] * y0 + K[3] * y1)], axis=-1)
        ikh = (1.0 - (K[0] * H[0] + K[1] * H[2]), -(K[0] * H[1] + K[1] * H[3]),
               -(K[2] * H[0] + K[3] * H[2]), 1.0 - (K[2] * H[1] + K[3] * H[3]))
        j = _congruence(ikh, a, b, c)
        n = _congruence(K, r00, r01, r11)
        self.P = _matrix(j[0] + n[0], j[1] + n[1], j[2] + n[2])
        return StepResult(
            belief=GaussianBelief(mean=self.x.copy(), cov=self.P.copy()),
            epsilon=self.P[..., 0, 0],
            skew=self.x[..., 0],
            offset=self.x[..., 1],
            responsibilities=np.ones(self.x.shape[:-1] + (1,)),
        )


def nominal_noise_cov(stddev: float) -> np.ndarray:
    """Fixed measurement covariance for the baseline from a nominal stddev."""
    return stddev**2 * np.array([[1.0, 0.5], [0.5, 1.0]])
