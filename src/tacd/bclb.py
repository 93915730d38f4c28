"""Bayesian Cramer-Rao lower-bound recursions for the skew estimators.

Fisher information is propagated recursively under oracle knowledge of the
per-period noise-mixture parameters: a scalar recursion for the linear-model
estimator and a 2x2 diagonal recursion (skew and temperature blocks) for the
fusion estimator. Reported bounds are the inverses of the skew information.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .clock import ClockDynamics


@dataclass(frozen=True)
class OracleNoiseTruth:
    """True per-period mixture parameters, as generated by the scenario."""

    weights: np.ndarray  # (horizon, N_g)
    stddevs: np.ndarray  # (horizon, N_g)
    tau: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.stddevs, dtype=float)
        if w.shape != s.shape:
            raise ValueError("weights and stddevs shapes differ")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9) or np.any(w < 0.0):
            raise ValueError("oracle weights must lie on the simplex")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stddevs", s)

    @property
    def horizon(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FusionBclbParams:
    """Inputs of the fusion-bound recursion."""

    alpha: Union[float, Sequence[float]]
    sigma_m_sq: float
    sigma_T_sq: float

    def __post_init__(self) -> None:
        if self.sigma_m_sq <= 0.0:
            raise ValueError("sigma_m_sq must be > 0")
        if self.sigma_T_sq <= 0.0:
            raise ValueError("sigma_T_sq must be > 0")

    def alpha_at(self, k: int) -> float:
        if np.isscalar(self.alpha):
            return float(self.alpha)
        return float(self.alpha[k])


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
                    params.alpha_at(k - 1),
                    params.alpha_at(k),
                )
        bclb_l[k] = 1.0 / j_lin
        if params is not None:
            bclb_f[k] = 1.0 / j_fus[0, 0]
    return bclb_l, bclb_f
