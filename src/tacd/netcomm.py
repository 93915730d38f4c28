"""Network-communication phase estimators.

Clock skew and offset are estimated from two-way timestamp exchanges by a
Gaussian-sum filter whose measurement-noise mixture is refined each period
with conjugate Dirichlet / inverse-Wishart mean-field updates (partial
variational Bayes). All of them read one measurement array built from the
exchanges (build_measurement); plain gPTP arithmetic reads its estimates
straight off that array, and a fixed-noise Kalman filter is the other
baseline.

Every estimator takes an optional leading run axis: means are (..., 2),
covariances (..., 2, 2), mixture weights (..., N_g) and mixture scales
(..., N_g, 2, 2). An unbatched call is the () case. The 2x2 algebra is
written out entry by entry and sums over mixture components run in a fixed
order, so each run's result is bit-identical whatever batch it is in.

A period is bound by numpy's per-call cost, not by arithmetic, so the
Gaussian-sum path makes few calls: it reads A = [[a00, 0], [a10, 1]] and
H = diag(h0, h1) as four floats off the StateSpace and drops the zero and
unit entries from its products, repeats its per-run operands over the
mixture components (equal-shape operands are stepped faster than broadcast
ones), and vb_refine keeps the five hyperparameter rows in one array. The
Kalman baseline runs its covariance recursion, the same for every run, once
per period on scalars. For finite operands these give the values of the
general-form products, which tests/oracles.py keeps as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import digamma

from .clock import StateSpace
from .scenario import NOISE_CORR, ExchangeBatch

_DIM = 2
_LOG_2PI = np.log(2.0 * np.pi)
_DIM_LOG_2 = _DIM * np.log(2.0)
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


def _matrix(a, b, d) -> np.ndarray:
    """Symmetric (..., 2, 2) array from its entries; a has the full shape."""
    out = np.empty(np.shape(a) + (_DIM, _DIM))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = b
    out[..., 1, 1] = d
    return out


def _vector(x0, x1) -> np.ndarray:
    """(..., 2) array from its entries; x0 has the full shape."""
    out = np.empty(np.shape(x0) + (_DIM,))
    out[..., 0] = x0
    out[..., 1] = x1
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


def _component_max(x: np.ndarray):
    """Maximum over the last (mixture component) axis; NaN propagates."""
    top = x[..., 0]
    for j in range(1, x.shape[-1]):
        top = np.maximum(top, x[..., j])
    return top


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
        if (cov.diagonal(axis1=-2, axis2=-1) <= 0.0).any():
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

    def __post_init__(self) -> None:
        chi = np.asarray(self.dirichlet_concentration, dtype=float)
        dof = np.asarray(self.iw_dof, dtype=float)
        scale = np.asarray(self.iw_scale, dtype=float)
        if dof.shape != chi.shape or scale.shape != chi.shape + (_DIM, _DIM):
            raise ValueError("hyperparameter shapes disagree on the component count")
        if (chi <= 0.0).any():
            raise ValueError("Dirichlet concentrations must be > 0")
        object.__setattr__(self, "dirichlet_concentration", chi)
        object.__setattr__(self, "iw_dof", dof)
        object.__setattr__(self, "iw_scale", scale)

    @property
    def num_components(self) -> int:
        return self.dirichlet_concentration.shape[-1]

    @property
    def dof_clamped(self) -> bool:
        return bool(np.any(self.iw_dof <= _DIM + 1))

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
        scale = np.array([(s * s) * NOISE_CORR for s in np.asarray(stddevs, dtype=float)])
        dof = np.full(w.shape, MIN_IW_DOF)
        return cls(dirichlet_concentration=w * 100.0, iw_dof=dof, iw_scale=scale)


def isotropic_mixture_model(chi, dof, scale_diag) -> MixtureNoiseModel:
    """Model with per-component isotropic scales V_i = s_i * I, s_i in s^2."""
    scale = np.array([s * np.eye(_DIM) for s in np.asarray(scale_diag, dtype=float)])
    return MixtureNoiseModel(
        dirichlet_concentration=np.asarray(chi, dtype=float),
        iw_dof=np.asarray(dof, dtype=float),
        iw_scale=scale,
    )


def build_measurement(ex: ExchangeBatch, d) -> np.ndarray:
    """Measurement vectors of consecutive exchanges, shaped (..., h, 2).

    Along the last (period) axis of ex, which must exist, period k gives
    z_k = (t2_k - t2_{k-1} - t1_k + t1_{k-1},  t2_k + t3_k - t1_k - t4_k - d).
    The skew entry needs the previous exchange, so it is NaN at the first
    period; the offset entry is filled at every period. Plain gPTP reads
    its estimates off z: skew z[..., 0] / tau, offset z[..., 1] / 2.
    """
    k = np.asarray(ex.period_index)
    if k.ndim == 0:
        raise ValueError("exchanges need a period axis: a measurement pairs consecutive exchanges")
    gap = k[..., 1:] != k[..., :-1] + 1
    if gap.any():
        i = np.unravel_index(np.argmax(gap), gap.shape)
        raise ValueError(
            f"exchanges must come from consecutive periods, got {k[..., :-1][i]} then {k[..., 1:][i]}"
        )
    z = np.empty(np.shape(ex.t2) + (_DIM,))
    z[..., 0, 0] = np.nan
    z[..., 1:, 0] = ex.t2[..., 1:] - ex.t2[..., :-1] - ex.t1[..., 1:] + ex.t1[..., :-1]
    z[..., 1] = ex.t2 + ex.t3 - ex.t1 - ex.t4 - d
    return z


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
    only those near or below the floor go through enforce_spd. Callers
    silence numpy's floating-point warnings: a NaN or zero lambda_max makes
    the run suspect.
    """
    cov = _matrix(a, b, d)
    repaired = np.zeros(cov.shape[:-2], dtype=bool)
    hi = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) * (a - d) + b * b)
    lo = (a * d - b * b) / hi
    suspect = ~(lo >= SPD_EIGENVALUE_FLOOR + _EIG_RECHECK * hi)
    if suspect.any():
        for i in np.ndindex(suspect.shape):
            if suspect[i]:
                cov[i], repaired[i] = enforce_spd(cov[i])
    return cov, repaired


def gsf_predict(belief: GaussianBelief, ss: StateSpace) -> GaussianBelief:
    """Time update: mean' = A mean, P' = A P A^T + Q_v, with the zero and
    unit entries of A = [[a00, 0], [a10, 1]] dropped from the products."""
    a00, a10 = ss.a00, ss.a10
    x0, x1 = belief.mean[..., 0], belief.mean[..., 1]
    p00, p01, p11 = _entries(belief.cov)
    # the rows of A P, then (A P) A^T
    u00, u01 = a00 * p00, a00 * p01
    u10, u11 = a10 * p00 + p01, a10 * p01 + p11
    q00, q01, q11 = _entries(ss.Q_v)
    return GaussianBelief(
        mean=_vector(a00 * x0, a10 * x0 + x1),
        cov=_matrix(u00 * a00 + q00, u00 * a10 + u01 + q01, u10 * a10 + u11 + q11),
    )


@dataclass
class GsfUpdateResult:
    """One measurement update. underflow_runs / repaired_runs flag each run;
    underflow and spd_repairs count the flagged runs of the batch."""

    belief: GaussianBelief
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

    H = diag(h0, h1): its zero entries are dropped from the products. A
    component whose innovation covariance has a non-positive determinant
    gets weight zero. In a run where every component likelihood underflows,
    the weights fall back to uniform and the run is flagged.
    """
    h0, h1 = ss.h0, ss.h1
    w = noise.point_weights
    n = noise.num_components
    # the per-run operands, repeated over the components: numpy steps
    # equal-shape contiguous operands faster than broadcast ones
    per_run = np.empty((7,) + w.shape)
    operands = (belief.mean[..., 0], belief.mean[..., 1], z[..., 0], z[..., 1], *_entries(belief.cov))
    for row, x in zip(per_run, operands):
        row[...] = x[..., None]
    x0, x1, z0, z1, p00, p01, p11 = per_run
    r00, r01, r11 = _entries(noise.point_covariances)

    v0 = z0 - h0 * x0
    v1 = z1 - h1 * x1
    # G = P H^T, then the innovation covariance H G + R_j of every component
    g00, g01, g10, g11 = p00 * h0, p01 * h1, p01 * h0, p11 * h1
    s00 = h0 * g00 + r00
    s01 = h0 * g01 + r01
    s11 = h1 * g11 + r11
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
        ikh = (1.0 - k00 * h0, -(k01 * h1), -(k10 * h0), 1.0 - k11 * h1)
        j00, j01, j11 = _congruence(ikh, p00, p01, p11)
        n00, n01, n11 = _congruence((k00, k01, k10, k11), r00, r01, r11)
        c00, c01, c11 = j00 + n00, j01 + n01, j11 + n11

        singular = det <= 0.0
        if singular.any():
            logw = np.where(singular, -np.inf, logw)
            m0, m1 = np.where(singular, x0, m0), np.where(singular, x1, m1)
            c00, c01, c11 = (np.where(singular, p, c) for p, c in ((p00, c00), (p01, c01), (p11, c11)))

        underflow = ~np.isfinite(logw).any(axis=-1)
        wts = np.exp(logw - _component_max(logw)[..., None])
        wts = wts / _component_sum(wts)[..., None]
        if underflow.any():
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
        belief=GaussianBelief(mean=_vector(mean0, mean1), cov=cov),
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
    S = (z - H x)(z - H x)^T + H P H^T built from the current posterior,
    H = diag(h0, h1). Convergence is judged per run: a converged run keeps
    its values while the others iterate on, up to max_iterations.

    The hyperparameters (chi, dof, V00, V01, V11) are the rows of one
    array, so an update is pred + q * stat, stat's rows being what each
    unit of responsibility adds: 1, 1 and the entries of S.
    """
    rho = settings.forgetting_factor
    h0, h1 = ss.h0, ss.h1
    r0 = z[..., 0] - h0 * belief.mean[..., 0]
    r1 = z[..., 1] - h1 * belief.mean[..., 1]
    p00, p01, p11 = _entries(belief.cov)
    # repeated over the components, like gsf_update's per-run operands
    stat = np.empty((5,) + noise.dirichlet_concentration.shape)
    stat[:2] = 1.0
    stat[2] = (r0 * r0 + (h0 * p00) * h0)[..., None]
    stat[3] = (r0 * r1 + (h0 * p01) * h1)[..., None]
    stat[4] = (r1 * r1 + (h1 * p11) * h1)[..., None]
    s00, s01, s11 = stat[2:]

    pred = np.empty(stat.shape)
    pred[0] = noise.dirichlet_concentration
    pred[1] = noise.iw_dof
    pred[2], pred[3], pred[4] = _entries(noise.iw_scale)
    pred *= rho
    pred[1] += (1.0 - rho) * MIN_IW_DOF

    params = pred
    active = np.ones(r0.shape, dtype=bool)
    held = False
    q_prev = None
    for _ in range(settings.max_iterations):
        chi, dof, v00, v01, v11 = params
        det = v00 * v11 - v01 * v01
        e_logdet_prec = digamma(0.5 * dof) + digamma(0.5 * (dof - 1.0)) + _DIM_LOG_2 - np.log(np.abs(det))
        e_log_pi = digamma(chi) - digamma(_component_sum(chi))[..., None]
        tr_term = dof * ((v11 * s00 - 2.0 * v01 * s01 + v00 * s11) / det)
        logq = e_log_pi + 0.5 * e_logdet_prec - 0.5 * tr_term
        q = np.exp(logq - _component_max(logq)[..., None])
        q = q / _component_sum(q)[..., None]

        update = pred + q * stat
        params = np.where(active[..., None], update, params) if held else update
        if q_prev is not None:
            active = active & ~(_component_max(np.abs(q - q_prev)) < settings.convergence_tol)
            still = np.count_nonzero(active)
            if not still:
                break
            held = still < active.size
        q_prev = q

    return MixtureNoiseModel(dirichlet_concentration=params[0], iw_dof=params[1], iw_scale=_matrix(*params[2:]))


class GsfVbFilter:
    """Alternating state / noise estimator over a stream of exchanges.

    Each period: predict, Gaussian-sum update, then (when VB settings are
    given) one round of noise-model refinement. With a single component and
    VB disabled the trajectory coincides with a textbook Kalman filter.
    The belief is the prior until the first step; each step's update flags
    the runs it repaired or whose likelihoods underflowed.
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

    def step(self, z) -> GsfUpdateResult:
        """Advance one period on the measurement z, shaped (..., 2) (one
        period of build_measurement's output); returns the update."""
        z = np.asarray(z, dtype=float)
        self.belief = gsf_predict(self.belief, self.ss)
        upd = gsf_update(self.belief, z, self.noise, self.ss)
        self.belief = upd.belief
        if self.vb is not None:
            self.noise = vb_refine(self.noise, z, self.belief, self.ss, self.vb)
        return upd

    def condition_on_skew(self, skew) -> None:
        """Replace the belief-mean skew entry, leaving the covariance alone."""
        mean = self.belief.mean.copy()
        mean[..., 0] = skew
        self.belief = GaussianBelief(mean=mean, cov=self.belief.cov)


class KalmanBaseline:
    """Textbook Kalman filter with a fixed single-Gaussian measurement noise.

    With R fixed and one prior covariance shared by every run, the
    covariance and gain recursion is the same for every run, so it runs
    once per period on scalars and only the (..., 2) means are stepped per
    run; belief.cov is that one (2, 2) covariance, broadcast read-only over
    the runs, and per-run prior covariances that differ raise. Written out
    directly with the general A and H (no mixture machinery, no entry
    assumed zero or one), so it doubles as an independent cross-check of
    the Gaussian-sum path.
    """

    def __init__(self, ss: StateSpace, r_fixed: np.ndarray, belief: GaussianBelief):
        priors = belief.cov.reshape((-1, _DIM, _DIM))
        if len(priors) == 0:
            raise ValueError("the Kalman baseline needs at least one run's prior")
        if (priors != priors[0]).any():
            raise ValueError("the runs' prior covariances must be equal: the Kalman covariance is shared")
        self.ss = ss
        self.R = np.asarray(r_fixed, dtype=float)
        if self.R.shape != (_DIM, _DIM):
            raise ValueError(f"the fixed measurement covariance must be 2x2, got shape {self.R.shape}")
        self.belief = GaussianBelief(mean=belief.mean, cov=np.broadcast_to(priors[0], belief.cov.shape))

    def step(self, z) -> GaussianBelief:
        """Advance one period on the measurement z, as GsfVbFilter.step;
        returns the posterior."""
        z = np.asarray(z, dtype=float)
        A, H, Q, R = (tuple(M.flat) for M in (self.ss.A, self.ss.H, self.ss.Q_v, self.R))
        # the shared covariance, on numpy scalars: P' = A P A^T + Q_v,
        # S = H P' H^T + R, K = P' H^T S^-1, then the Joseph form
        P = tuple(self.belief.cov.reshape((-1, _DIM, _DIM))[0].flat)
        a, b, c = _congruence(A, P[0], P[1], P[3])
        a, b, c = a + Q[0], b + Q[1], c + Q[3]
        f00, f01, f10, f11 = a * H[0] + b * H[1], a * H[2] + b * H[3], b * H[0] + c * H[1], b * H[2] + c * H[3]
        s00, s01, s11 = _congruence(H, a, b, c)
        s00, s01, s11 = s00 + R[0], s01 + R[1], s11 + R[3]
        det = s00 * s11 - s01 * s01
        K = ((f00 * s11 - f01 * s01) / det, (f01 * s00 - f00 * s01) / det,
             (f10 * s11 - f11 * s01) / det, (f11 * s00 - f10 * s01) / det)
        ikh = (1.0 - (K[0] * H[0] + K[1] * H[2]), -(K[0] * H[1] + K[1] * H[3]),
               -(K[2] * H[0] + K[3] * H[2]), 1.0 - (K[2] * H[1] + K[3] * H[3]))
        j = _congruence(ikh, a, b, c)
        n = _congruence(K, R[0], R[1], R[3])
        cov = _matrix(j[0] + n[0], j[1] + n[1], j[2] + n[2])
        # the per-run means
        x0, x1 = self.belief.mean[..., 0], self.belief.mean[..., 1]
        xp0, xp1 = A[0] * x0 + A[1] * x1, A[2] * x0 + A[3] * x1
        y0 = z[..., 0] - (H[0] * xp0 + H[1] * xp1)
        y1 = z[..., 1] - (H[2] * xp0 + H[3] * xp1)
        mean = _vector(xp0 + (K[0] * y0 + K[1] * y1), xp1 + (K[2] * y0 + K[3] * y1))
        self.belief = GaussianBelief(mean=mean, cov=np.broadcast_to(cov, self.belief.cov.shape))
        return self.belief


def nominal_noise_cov(stddev: float) -> np.ndarray:
    """Fixed measurement covariance for the baseline from a nominal stddev."""
    return stddev**2 * NOISE_CORR
