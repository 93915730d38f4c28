"""Bayesian Cramer-Rao lower-bound recursions for the skew estimators.

Fisher information follows the posterior Cramer-Rao recursion of
Tichavsky, Muravchik & Nehorai (IEEE TSP 46(5), 1998) over the horizon,
under oracle knowledge of the per-period noise-mixture parameters. Both the
linear-model and the fusion estimator propagate a scalar skew information;
the fusion recursion scales it by the network weight alpha. Reported bounds
are the inverses of the skew information.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

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


def _mixture_data_term(weights: np.ndarray, stddevs: np.ndarray, tau: float) -> float:
    """Measurement information term tau^2 * (sum b/Lambda^3) / (sum b/Lambda)."""
    lam = np.asarray(stddevs, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("mixture stddevs must be > 0")
    b = np.asarray(weights, dtype=float)
    return tau**2 * float(np.sum(b / lam**3) / np.sum(b / lam))


def _linear_prior(j_prev: float, dyn: ClockDynamics) -> float:
    """Prior part of the linear skew recursion, 1/s - (m/s)^2 / (J_{k-1} + m^2/s)."""
    s = dyn.sigma_u_sq
    m = dyn.m
    return 1.0 / s - (m / s) ** 2 / (j_prev + m * m / s)


def _fusion_skew_info(j_prev: float, dyn: ClockDynamics, data: float, alpha_prev: float, alpha_now: float) -> float:
    """Skew information of the fusion recursion.

    J_k = 1/(a_{k-1}^2 s) - (m/(a_{k-1} s))^2 / (J_{k-1} + m^2/s)
          + data / a_k^2

    which is the linear recursion bit for bit at alpha = 1.
    """
    s = dyn.sigma_u_sq
    m = dyn.m
    as_ = alpha_prev * s
    return 1.0 / (alpha_prev * as_) - (m / as_) ** 2 / (j_prev + m * m / s) + data / (alpha_now * alpha_now)


def bclb_trajectory(
    oracle: OracleNoiseTruth,
    dyn: ClockDynamics,
    alpha: Union[None, float, Sequence[float], np.ndarray],
    p0_skew: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-period (BCLB_linear, BCLB_fusion) sequences over the oracle's horizon.

    alpha is one fusion weight or a per-period sequence; the fusion sequence
    is NaN when alpha is None. Information starts at 1/P0_skew at k = 0 (the
    prior variance is the period-0 bound); each later period applies the
    recursions with that period's oracle mixture.
    """
    if p0_skew <= 0.0:
        raise ValueError("P0 skew variance must be > 0")
    h = oracle.horizon
    bclb_l = np.empty(h)
    bclb_f = np.full(h, np.nan)
    if alpha is not None:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim > 1:
            raise ValueError(f"alpha must be one weight or a per-period sequence, got shape {alpha.shape}")
        alpha = np.full(h, float(alpha)) if alpha.ndim == 0 else alpha[:h]
        if not np.all((alpha > 0.0) & (alpha <= 1.0)):
            raise ValueError("alpha weights must lie in (0, 1]")
        alpha = alpha.tolist()
        j_skew = 1.0 / p0_skew

    j_lin = 1.0 / p0_skew
    for k in range(h):
        if k > 0:
            data = _mixture_data_term(oracle.weights[k], oracle.stddevs[k], dyn.tau)
            j_lin = _linear_prior(j_lin, dyn) + data
            if alpha is not None:
                j_skew = _fusion_skew_info(j_skew, dyn, data, alpha[k - 1], alpha[k])
        bclb_l[k] = 1.0 / j_lin
        if alpha is not None:
            bclb_f[k] = 1.0 / j_skew
    return bclb_l, bclb_f
