"""Independent numerical oracles shared by the unit and acceptance suites."""
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import digamma


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
