"""Network-communication phase estimators.

Clock skew and offset are estimated from two-way timestamp exchanges by a
Gaussian-sum filter whose measurement-noise mixture is refined each period
with conjugate Dirichlet / inverse-Wishart mean-field updates (partial
variational Bayes). All of them read one measurement array built from the
exchanges (build_measurement); plain gPTP arithmetic reads its estimates
straight off that array, and a fixed-noise Kalman filter is the other
baseline.

Every estimator takes an optional leading run axis. A belief
(GaussianBelief) and a noise model (MixtureNoiseModel) each hold packed
rows, the layout the filters' arithmetic uses: a belief the rows
(x0, x1, P00, P01, P11) of one (5, ...) array, a noise model the rows
(chi, dof, V00, V01, V11) of one (5, ..., N_g) array. Callers build them
with the validating constructors, from (mean, cov) or (chi, dof, scale),
where runs=n puts in the run axis; the filters step through from_rows,
unchecked but for the checks each step makes. The (..., 2) means,
(..., 2, 2) covariances and (..., N_g, 2, 2) scales are built only where a
caller reads them. An unbatched call is the () case. The 2x2 algebra is
written out entry by entry and sums over mixture components run in a fixed
order, so each run's result is bit-identical whatever batch it is in.

A period is bound by numpy's per-call cost, not by arithmetic, so the
Gaussian-sum path makes few calls: it reads A = [[a00, 0], [a10, 1]] and
H = diag(h0, h1) as four floats off the StateSpace and drops the zero and
unit entries from its products, and repeats its per-run operands over the
mixture components (equal-shape operands are stepped faster than broadcast
ones). The Kalman baseline runs its covariance recursion, the same for
every run, once per period on Python floats and steps only the mean rows.
For finite operands these give the values of the general-form products,
which tests/oracles.py keeps as the reference.

scipy is loaded by vb_refine on its first call, not with this module: its
digamma is the only thing tacd reads from scipy, so commands that run no
VB refinement start without scipy's import time and memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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


def _column_congruence(t0, t1, a, b, d):
    """Entries ((m00, m01), m11) of T M T^T for a symmetric M = (a, b, d)
    and T given by its columns t0 = (t00, t10) and t1 = (t01, t11), each
    stacked on a leading axis of 2: _congruence's products, two entries to
    a numpy call."""
    u0 = t0 * a + t1 * b  # (u00, u10), the first column of T M
    u1 = t0 * b + t1 * d  # (u01, u11)
    return u0[0] * t0 + u1[0] * t1, u0[1] * t0[1] + u1[1] * t1[1]


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


# ----------------------------------------------------------------- beliefs

def _with_runs(rows, runs: Optional[int]):
    """rows (5, ...) with a run axis of length runs put in after the row
    axis, as if every input had been repeated along a new leading axis."""
    if runs is None:
        return rows
    return np.broadcast_to(rows[:, None], (len(rows), runs) + rows.shape[1:]).copy()


class GaussianBelief:
    """Posterior state belief: mean (skew s/s, offset s) and 2x2 covariance,
    held as its rows (x0, x1, P00, P01, P11).

    The constructor takes (..., 2) means and (..., 2, 2) covariances; runs=n
    adds a leading run axis of length n. rows is then one (5, ...) array.
    The Kalman baseline's rows are a tuple whose covariance entries are
    floats that every run shares. mean and cov are built on access, a
    shared covariance as one read-only (2, 2) broadcast over the runs.
    """

    __slots__ = ("rows",)

    def __init__(self, mean, cov, runs: Optional[int] = None):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape[-1:] != (_DIM,) or cov.shape != mean.shape + (_DIM,):
            raise ValueError("belief must be a 2-vector mean with 2x2 covariance")
        if (cov.diagonal(axis1=-2, axis2=-1) <= 0.0).any():
            raise ValueError("covariance diagonal must be positive")
        self.rows = _with_runs(np.stack((mean[..., 0], mean[..., 1], *_entries(cov))), runs)

    @classmethod
    def from_rows(cls, rows) -> "GaussianBelief":
        """The belief holding rows as they are, unchecked: the filters' path."""
        belief = object.__new__(cls)
        belief.rows = rows
        return belief

    @property
    def mean(self) -> np.ndarray:
        return _vector(self.rows[0], self.rows[1])

    @property
    def cov(self) -> np.ndarray:
        shape = np.shape(self.rows[0])
        cov = _matrix(*self.rows[2:])
        return cov if cov.shape[:-2] == shape else np.broadcast_to(cov, shape + (_DIM, _DIM))


def _positive_diagonal(rows: np.ndarray) -> GaussianBelief:
    """The belief holding rows; raises unless every covariance diagonal
    entry is positive (a NaN passes, as in the constructor)."""
    if np.count_nonzero(rows[2::2] <= 0.0):
        raise ValueError("covariance diagonal must be positive")
    return GaussianBelief.from_rows(rows)


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


# ------------------------------------------------------------ noise models

def _point_weights(chi):
    """The Dirichlet mean of concentrations chi, shaped (..., N_g)."""
    return chi / _component_sum(chi)[..., None]


def _point_covariance_rows(rows: np.ndarray) -> np.ndarray:
    """Entry rows (R00, R01, R11) of the inverse-Wishart means V / (dof - 3)
    of noise rows (chi, dof, V00, V01, V11), dof clamped at MIN_IW_DOF where
    the mean would not exist."""
    return rows[2:] / (np.maximum(rows[1], MIN_IW_DOF) - (_DIM + 1.0))


class MixtureNoiseModel:
    """Dirichlet / inverse-Wishart hyperparameters of the GMM measurement
    noise, held as the rows (chi, dof, V00, V01, V11) of one (5, ..., N_g)
    array.

    The constructor takes (..., N_g) concentrations and dofs and
    (..., N_g, 2, 2) scales; runs=n adds a leading run axis of length n.
    The filter uses the plug-in values point_weights, the Dirichlet mean,
    and point_covariances, the inverse-Wishart mean V / (dof - 3) with dof
    clamped at MIN_IW_DOF when the mean would not exist; dof_clamped says
    whether that clamp applies in any run. These and iw_scale are built on
    access.
    """

    __slots__ = ("rows",)

    def __init__(self, dirichlet_concentration, iw_dof, iw_scale, runs: Optional[int] = None):
        chi = np.asarray(dirichlet_concentration, dtype=float)
        dof = np.asarray(iw_dof, dtype=float)
        scale = np.asarray(iw_scale, dtype=float)
        if dof.shape != chi.shape or scale.shape != chi.shape + (_DIM, _DIM):
            raise ValueError("hyperparameter shapes disagree on the component count")
        if (chi <= 0.0).any():
            raise ValueError("Dirichlet concentrations must be > 0")
        self.rows = _with_runs(np.stack((chi, dof, *_entries(scale))), runs)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "MixtureNoiseModel":
        """The model holding rows as they are, unchecked: the filter's path."""
        noise = object.__new__(cls)
        noise.rows = rows
        return noise

    @classmethod
    def from_point_estimates(cls, weights, stddevs, runs: Optional[int] = None) -> "MixtureNoiseModel":
        """Sharp model with the given weights and per-component stddevs."""
        w = np.asarray(weights, dtype=float)
        s = np.asarray(stddevs, dtype=float)
        scale = (s * s)[..., None, None] * NOISE_CORR
        return cls(w * 100.0, np.full(w.shape, MIN_IW_DOF), scale, runs=runs)

    @property
    def dirichlet_concentration(self) -> np.ndarray:
        return self.rows[0]

    @property
    def iw_dof(self) -> np.ndarray:
        return self.rows[1]

    @property
    def iw_scale(self) -> np.ndarray:
        return _matrix(*self.rows[2:])

    @property
    def dof_clamped(self) -> bool:
        return bool(np.any(self.iw_dof <= _DIM + 1))

    @property
    def point_weights(self) -> np.ndarray:
        return _point_weights(self.dirichlet_concentration)

    @property
    def point_covariances(self) -> np.ndarray:
        return _matrix(*_point_covariance_rows(self.rows))


def isotropic_mixture_model(chi, dof, scale_diag, runs: Optional[int] = None) -> MixtureNoiseModel:
    """Model with per-component isotropic scales V_i = s_i * I, s_i in s^2."""
    scale = np.asarray(scale_diag, dtype=float)[..., None, None] * np.eye(_DIM)
    return MixtureNoiseModel(chi, dof, scale, runs=runs)


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


def _spd_repair(rows: np.ndarray) -> np.ndarray:
    """Enforce the eigenvalue floor on the covariance rows of belief rows,
    in place; returns which runs were repaired.

    The closed-form minimum eigenvalue det / lambda_max screens the runs;
    only those near or below the floor go through enforce_spd, whose [0, 1]
    entry is kept. Callers silence numpy's floating-point warnings: a NaN or
    zero lambda_max makes the run suspect.
    """
    a, b, d = rows[2:]
    hi = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) * (a - d) + b * b)
    lo = (a * d - b * b) / hi
    suspect = ~(lo >= SPD_EIGENVALUE_FLOOR + _EIG_RECHECK * hi)
    repaired = np.zeros(suspect.shape, dtype=bool)
    if np.count_nonzero(suspect):
        for i in np.ndindex(suspect.shape):
            if suspect[i]:
                run = rows[(slice(None),) + i]
                cov, repaired[i] = enforce_spd(_matrix(*run[2:]))
                run[2:] = _entries(cov)
    return repaired


# ------------------------------------------------------------------ GSF-VB
# The filter functions read a belief's and a noise model's packed rows and
# return new ones through from_rows, after the checks each step makes.

def gsf_predict(belief: GaussianBelief, ss: StateSpace) -> GaussianBelief:
    """Time update: mean' = A mean, P' = A P A^T + Q_v, with the zero and
    unit entries of A = [[a00, 0], [a10, 1]] dropped from the products."""
    a00, a10 = ss.a00, ss.a10
    rows = belief.rows
    x0, x1, p00, p01, p11 = rows
    # the rows of A P, then (A P) A^T
    u00, u01 = a00 * p00, a00 * p01
    u10, u11 = a10 * p00 + p01, a10 * p01 + p11
    q00, q01, q11 = _entries(ss.Q_v)
    out = np.empty(rows.shape)
    out[0] = a00 * x0
    out[1] = a10 * x0 + x1
    out[2] = u00 * a00 + q00
    out[3] = u00 * a10 + u01 + q01
    out[4] = u10 * a10 + u11 + q11
    return _positive_diagonal(out)


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


def gsf_update(belief: GaussianBelief, z: np.ndarray, noise: MixtureNoiseModel, ss: StateSpace) -> GsfUpdateResult:
    """Measurement update: one Kalman update per mixture component, combined
    by posterior component weights and moment-matched to a single Gaussian.

    H = diag(h0, h1): its zero entries are dropped from the products. A
    component whose innovation covariance has a non-positive determinant
    gets weight zero. In a run where every component likelihood underflows,
    the weights fall back to uniform and the run is flagged.
    """
    h0, h1 = ss.h0, ss.h1
    rows, noise_rows = belief.rows, noise.rows
    w = _point_weights(noise_rows[0])
    r00, r01, r11 = _point_covariance_rows(noise_rows)
    n = w.shape[-1]
    # the per-run operands, repeated over the components: numpy steps
    # equal-shape contiguous operands faster than broadcast ones
    per_run = np.empty((7,) + w.shape)
    per_run[:5] = rows[..., None]
    per_run[5] = z[..., 0, None]
    per_run[6] = z[..., 1, None]
    x0, x1, p00, p01, p11, z0, z1 = per_run

    v0 = z0 - h0 * x0
    v1 = z1 - h1 * x1
    # the columns (g00, g10), (g01, g11) of G = P H^T, then the innovation
    # covariance H G + R_j of every component
    g0, g1 = per_run[2:4] * h0, per_run[3:5] * h1
    s00 = h0 * g0[0] + r00
    s01 = h0 * g1[0] + r01
    s11 = h1 * g1[1] + r11
    det = s00 * s11 - s01 * s01

    # a singular component, or a run whose likelihoods all underflow, goes
    # through the same arithmetic and is overwritten below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quad = (s11 * (v0 * v0) - s01 * (2.0 * v0 * v1) + s00 * (v1 * v1)) / det
        logw = np.log(w) - 0.5 * (quad + np.log(det) + _DIM * _LOG_2PI)
        # the columns (k00, k10), (k01, k11) of the gain K = G S^-1, and the
        # component posterior means (m0, m1)
        k0 = (g0 * s11 - g1 * s01) / det
        k1 = (g1 * s00 - g0 * s01) / det
        m = per_run[:2] + (k0 * v0 + k1 * v1)
        # Joseph form (I - K H) P (I - K H)^T + K R K^T keeps each component
        # PSD; the columns of I - K H are (1 - k00 h0, -(k10 h0)) and
        # (-(k01 h1), 1 - k11 h1)
        ikh0, ikh1 = -(k0 * h0), -(k1 * h1)
        ikh0[0] += 1.0
        ikh1[1] += 1.0
        # each congruence gives ((c00, c01) stacked, c11)
        j0, j11 = _column_congruence(ikh0, ikh1, p00, p01, p11)
        n0, n11 = _column_congruence(k0, k1, r00, r01, r11)
        c0, c11 = j0 + n0, j11 + n11

        singular = det <= 0.0
        if np.count_nonzero(singular):
            logw = np.where(singular, -np.inf, logw)
            m = np.where(singular, per_run[:2], m)
            c0, c11 = np.where(singular, per_run[2:4], c0), np.where(singular, p11, c11)

        underflow = ~np.isfinite(logw).any(axis=-1)
        wts = np.exp(logw - _component_max(logw)[..., None])
        wts = wts / _component_sum(wts)[..., None]
        if np.count_nonzero(underflow):
            wts = np.where(underflow[..., None], 1.0 / n, wts)

        # moment matching: the mixture mean, then the covariance entries
        # (P00, P01) and P11 about it
        out = np.empty(rows.shape)
        out[:2] = _component_sum(wts * m)
        e = m - out[:2, ..., None]
        out[2:4] = _component_sum(wts * (c0 + e[0] * e))
        out[4] = _component_sum(wts * (c11 + e[1] * e[1]))
        repaired = _spd_repair(out)
    return GsfUpdateResult(
        belief=_positive_diagonal(out),
        responsibilities=wts,
        underflow_runs=underflow,
        repaired_runs=repaired,
    )


def vb_refine(
    noise: MixtureNoiseModel, z: np.ndarray, belief: GaussianBelief, ss: StateSpace, settings: VbSettings
) -> MixtureNoiseModel:
    """Conjugate mean-field refinement of the noise mixture for one period.

    Hyperparameters are first discounted by the forgetting factor (the
    prediction distribution for the non-stationary noise), then updated with
    the responsibility-weighted residual statistic
    S = (z - H x)(z - H x)^T + H P H^T built from the current posterior,
    H = diag(h0, h1). Convergence is judged per run: a converged run keeps
    its values while the others iterate on, up to max_iterations.

    On the noise rows (chi, dof, V00, V01, V11) an update is
    pred + q * stat, stat's rows being what each unit of responsibility
    adds: 1, 1 and the entries of S.
    """
    # Not a module import: scipy.special adds ~0.3 s and ~20 MB to start-up.
    from scipy.special import digamma

    rho = settings.forgetting_factor
    h0, h1 = ss.h0, ss.h1
    x0, x1, p00, p01, p11 = belief.rows
    r0 = z[..., 0] - h0 * x0
    r1 = z[..., 1] - h1 * x1
    pred = noise.rows * rho
    pred[1] += (1.0 - rho) * MIN_IW_DOF
    # repeated over the components, like gsf_update's per-run operands
    stat = np.empty(pred.shape)
    stat[:2] = 1.0
    stat[2] = (r0 * r0 + (h0 * p00) * h0)[..., None]
    stat[3] = (r0 * r1 + (h0 * p01) * h1)[..., None]
    stat[4] = (r1 * r1 + (h1 * p11) * h1)[..., None]
    s00, s01, s11 = stat[2:]

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

    if np.count_nonzero(params[0] <= 0.0):
        raise ValueError("Dirichlet concentrations must be > 0")
    return MixtureNoiseModel.from_rows(params)


class GsfVbFilter:
    """Alternating state / noise estimator over a stream of exchanges.

    Each period: predict, Gaussian-sum update, then (when VB settings are
    given) one round of noise-model refinement. With a single component and
    VB disabled the trajectory coincides with a textbook Kalman filter.
    The filter holds copies of the belief and noise model it is given,
    whose run shapes must agree. The belief is the prior until the first
    step; each step's update flags the runs it repaired or whose
    likelihoods underflowed.
    """

    def __init__(
        self, ss: StateSpace, noise: MixtureNoiseModel, belief: GaussianBelief, vb: Optional[VbSettings] = None
    ):
        noise_rows, belief_rows = np.array(noise.rows, dtype=float), np.array(belief.rows, dtype=float)
        if belief_rows.shape[1:] != noise_rows.shape[1:-1]:
            raise ValueError(
                f"the belief's run shape {belief_rows.shape[1:]} and the noise model's run shape "
                f"{noise_rows.shape[1:-1]} differ"
            )
        self.ss = ss
        self.noise = MixtureNoiseModel.from_rows(noise_rows)
        self.belief = GaussianBelief.from_rows(belief_rows)
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
        """Replace the belief-mean skew row, leaving the covariance alone."""
        rows = self.belief.rows.copy()
        rows[0] = skew
        self.belief = GaussianBelief.from_rows(rows)


class KalmanBaseline:
    """Textbook Kalman filter with a fixed single-Gaussian measurement noise.

    With R fixed and one prior covariance shared by every run, the
    covariance and gain recursion is the same for every run, so it runs
    once per period on Python floats (the same IEEE arithmetic as numpy
    scalars) and only the mean rows are stepped per run; belief is a
    GaussianBelief whose covariance entries are those floats, and per-run
    prior covariances that differ raise. Written out directly with the
    general A and H (no mixture machinery, no entry assumed zero or one),
    so it doubles as an independent cross-check of the Gaussian-sum path.
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
        # A, H, Q_v and R, each row-major as Python floats
        self._matrices = tuple(tuple(np.asarray(M, dtype=float).ravel().tolist()) for M in (ss.A, ss.H, ss.Q_v, self.R))
        x0, x1 = (np.array(row, dtype=float) for row in belief.rows[:2])
        (p00, p01), (_, p11) = priors[0].tolist()
        self.belief = GaussianBelief.from_rows((x0, x1, p00, p01, p11))

    def step(self, z) -> GaussianBelief:
        """Advance one period on the measurement z, as GsfVbFilter.step;
        returns the posterior."""
        z = np.asarray(z, dtype=float)
        A, H, Q, R = self._matrices
        x0, x1, *P = self.belief.rows
        # the shared covariance: P' = A P A^T + Q_v, S = H P' H^T + R,
        # K = P' H^T S^-1, then the Joseph form
        a, b, c = _congruence(A, *P)
        a, b, c = a + Q[0], b + Q[1], c + Q[3]
        f00, f01, f10, f11 = a * H[0] + b * H[1], a * H[2] + b * H[3], b * H[0] + c * H[1], b * H[2] + c * H[3]
        s00, s01, s11 = _congruence(H, a, b, c)
        s00, s01, s11 = s00 + R[0], s01 + R[1], s11 + R[3]
        det = s00 * s11 - s01 * s01
        if not det:
            # a float division by zero raises; numpy's gives IEEE inf / NaN
            det = np.float64(det)
        K = ((f00 * s11 - f01 * s01) / det, (f01 * s00 - f00 * s01) / det,
             (f10 * s11 - f11 * s01) / det, (f11 * s00 - f10 * s01) / det)
        ikh = (1.0 - (K[0] * H[0] + K[1] * H[2]), -(K[0] * H[1] + K[1] * H[3]),
               -(K[2] * H[0] + K[3] * H[2]), 1.0 - (K[2] * H[1] + K[3] * H[3]))
        j = _congruence(ikh, a, b, c)
        n = _congruence(K, R[0], R[1], R[3])
        cov = (j[0] + n[0], j[1] + n[1], j[2] + n[2])
        # the per-run mean rows
        xp0, xp1 = A[0] * x0 + A[1] * x1, A[2] * x0 + A[3] * x1
        y0 = z[..., 0] - (H[0] * xp0 + H[1] * xp1)
        y1 = z[..., 1] - (H[2] * xp0 + H[3] * xp1)
        self.belief = GaussianBelief.from_rows((xp0 + (K[0] * y0 + K[1] * y1), xp1 + (K[2] * y0 + K[3] * y1), *cov))
        return self.belief


def nominal_noise_cov(stddev: float) -> np.ndarray:
    """Fixed measurement covariance for the baseline from a nominal stddev."""
    return stddev**2 * NOISE_CORR
