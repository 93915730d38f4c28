"""Pareto-optimal fusion of the network-phase and thermal-phase skew estimates.

The fused estimate alpha*theta_L + beta*theta_T trades the network phase's
variance against the thermal phase's bias; the weight beta minimizing the
scalarized cost lambda*bias^2 + (1-lambda)*variance has a closed form,
clamped to [0, 1]. Every function works elementwise on arrays of runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermal import TempSkewModel


@dataclass(frozen=True)
class PhaseErrorStats:
    """Per-period error statistics of the two phases.

    linear_variance is the network filter's posterior skew variance;
    temp_gap is the operating-point distance from the ideal temperature
    (taken from the measured temperature, the estimator's best knowledge).
    """

    linear_variance: float
    temp_gap: float

    def __post_init__(self) -> None:
        if np.any(np.less_equal(self.linear_variance, 0.0)):
            raise ValueError("linear_variance must be > 0")


@dataclass(frozen=True)
class FusionWeights:
    alpha: float
    beta: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta)
        if not np.all((beta >= 0.0) & (beta <= 1.0)):
            raise ValueError("beta must lie in [0, 1]")
        if np.any(np.abs(self.alpha + beta - 1.0) > 1e-12):
            raise ValueError("alpha + beta must equal 1")


def fusion_bias(beta: float, model: TempSkewModel) -> float:
    """Bias of the fused estimate: kappa * sigma_T_sq * beta."""
    return model.kappa * model.sigma_T_sq * beta


def fusion_variance(alpha: float, beta: float, stats: PhaseErrorStats, model: TempSkewModel) -> float:
    """Variance of the fused estimate error.

    eps*alpha^2 + kappa^2*(4*sigma_T_sq*(T-T0)^2 + 2*sigma_T_sq^2)*beta^2;
    the thermal part has 2*sigma^4 (not 3) because the bias is subtracted.
    """
    if abs(alpha + beta - 1.0) > 1e-9:
        raise ValueError("alpha + beta must equal 1")
    s2 = model.sigma_T_sq
    w = model.kappa**2 * (4.0 * s2 * stats.temp_gap**2 + 2.0 * s2 * s2)
    return stats.linear_variance * alpha**2 + w * beta**2


def fusion_cost(beta: float, lam: float, stats: PhaseErrorStats, model: TempSkewModel) -> float:
    """Scalarized objective lambda*bias^2 + (1-lambda)*variance at weight beta."""
    mu = fusion_bias(beta, model)
    var = fusion_variance(1.0 - beta, beta, stats, model)
    return lam * mu * mu + (1.0 - lam) * var


def pareto_beta(stats: PhaseErrorStats, model: TempSkewModel, lam: float) -> FusionWeights:
    """Closed-form minimizer of the scalarized cost, clamped to [0, 1].

    beta* = (1-lam)*eps / (lam*kappa^2*sigma^4
            + (1-lam)*(kappa^2*(4*(T-T0)^2*sigma^2 + 2*sigma^4) + eps))
    A vanishing denominator (all terms zero) degrades to beta = 0 with the
    degenerate flag set.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    eps = stats.linear_variance
    s2 = model.sigma_T_sq
    k2 = model.kappa**2
    denom = lam * k2 * s2 * s2 + (1.0 - lam) * (
        k2 * (4.0 * stats.temp_gap**2 * s2 + 2.0 * s2 * s2) + eps
    )
    degenerate = denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.divide((1.0 - lam) * eps, denom)
    beta = np.where(degenerate, 0.0, np.clip(eta, 0.0, 1.0))
    return FusionWeights(alpha=1.0 - beta, beta=beta, degenerate=degenerate)


def fuse_skew(theta_linear: float, theta_thermal: float, weights: FusionWeights) -> float:
    """Linear fusion of the two phase estimates."""
    return weights.alpha * theta_linear + weights.beta * theta_thermal
