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
from typing import Optional

import numpy as np

from .clock import ClockDynamics


@dataclass(frozen=True)
class OracleNoiseTruth:
    """True per-period mixture parameters, as generated by the scenario."""

    weights: np.ndarray  # (horizon, N_g)
    stddevs: np.ndarray  # (horizon, N_g)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.stddevs, dtype=float)
        if w.shape != s.shape:
            raise ValueError("weights and stddevs shapes differ")
        # written so that a NaN or infinite weight fails
        if not (np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9) and np.all(w >= 0.0)):
            raise ValueError("oracle weights must lie on the simplex")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stddevs", s)

    @property
    def horizon(self) -> int:
        return self.weights.shape[0]


def _mixture_data_terms(weights: np.ndarray, stddevs: np.ndarray, tau: float) -> list[float]:
    """Measurement information terms tau^2 * (sum b/Lambda^3) / (sum b/Lambda),
    one per row of the (periods, N_g) arrays."""
    lam = stddevs
    if not np.all((lam > 0.0) & (lam < np.inf)):
        raise ValueError("mixture stddevs must be finite and > 0")
    b = weights
    return (tau**2 * (np.sum(b / lam**3, axis=1) / np.sum(b / lam, axis=1))).tolist()


def _linear_prior(j_prev: float, dyn: ClockDynamics) -> float:
    """Prior part of the linear skew recursion, 1/s - (m/s)^2 / (J_{k-1} + m^2/s)."""
    s = dyn.sigma_u_sq
    m = dyn.m
    return 1.0 / s - (m / s) ** 2 / (j_prev + m * m / s)


def _fusion_skew_info(j_prev: float, dyn: ClockDynamics, data: float, alpha: float) -> float:
    """Skew information of the fusion recursion at network weight a,

    J_k = 1/(a^2 s) - (m/(a s))^2 / (J_{k-1} + m^2/s) + data / a^2

    which is the linear recursion bit for bit at alpha = 1.
    """
    s = dyn.sigma_u_sq
    m = dyn.m
    as_ = alpha * s
    return 1.0 / (alpha * as_) - (m / as_) ** 2 / (j_prev + m * m / s) + data / (alpha * alpha)


def bclb_trajectory(
    oracle: OracleNoiseTruth,
    dyn: ClockDynamics,
    alpha: Optional[float],
    p0_skew: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-period (BCLB_linear, BCLB_fusion) sequences over the oracle's horizon.

    alpha is the fusion weight; the fusion sequence is NaN when alpha is
    None. Information starts at 1/P0_skew at k = 0 (the prior variance is
    the period-0 bound); each later period applies the recursions with that
    period's oracle mixture, whose data term is computed for every period
    in one call before the recursion starts.
    """
    if p0_skew <= 0.0:
        raise ValueError("P0 skew variance must be > 0")
    h = oracle.horizon
    bclb_l = np.empty(h)
    bclb_f = np.full(h, np.nan)
    if alpha is not None:
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        j_skew = 1.0 / p0_skew

    j_lin = 1.0 / p0_skew
    terms = _mixture_data_terms(oracle.weights[1:], oracle.stddevs[1:], dyn.tau)
    for k in range(h):
        if k > 0:
            data = terms[k - 1]
            j_lin = _linear_prior(j_lin, dyn) + data
            if alpha is not None:
                j_skew = _fusion_skew_info(j_skew, dyn, data, alpha)
        bclb_l[k] = 1.0 / j_lin
        if alpha is not None:
            bclb_f[k] = 1.0 / j_skew
    return bclb_l, bclb_f
