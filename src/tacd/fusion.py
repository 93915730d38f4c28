"""Pareto-optimal fusion of the network-phase and thermal-phase skew estimates.

The fused estimate (1-beta)*theta_L + beta*theta_T trades the network phase's
variance against the thermal phase's bias; the weight beta minimizing the
scalarized cost lambda*bias^2 + (1-lambda)*variance has a closed form in
[0, 1]. Each period's inputs are two error statistics:
linear_variance, the network filter's posterior skew variance, and the
thermal phase's error variance thermal_variance(temp_gap), temp_gap being
the measured temperature minus T0 (the measured temperature being the
estimator's best knowledge of the operating point). Every function works
elementwise on arrays of runs.
"""
from __future__ import annotations

import numpy as np

from .thermal import TempSkewModel


def thermal_variance(temp_gap, model: TempSkewModel):
    """Variance of the thermal-phase skew error at the temperature gaps
    T - T0: kappa^2*(4*sigma_T_sq*(T-T0)^2 + 2*sigma_T_sq^2); 2*sigma^4
    (not 3) because the bias is subtracted. The gap is squared by numpy,
    so one whose square overflows gives inf, a Python float as well."""
    s2 = model.sigma_T_sq
    return model.kappa**2 * (4.0 * np.square(temp_gap) * s2 + 2.0 * s2 * s2)


def fusion_variance(beta, linear_variance, temp_gap, model: TempSkewModel):
    """Variance of the fused estimate error,
    eps*(1-beta)^2 + thermal_variance(temp_gap)*beta^2."""
    return linear_variance * (1.0 - beta) ** 2 + thermal_variance(temp_gap, model) * beta**2


def pareto_beta(linear_variance, thermal_var, model: TempSkewModel, lam: float) -> np.ndarray:
    """Closed-form minimizer beta of the scalarized cost, in [0, 1].

    beta* = (1-lam)*eps / (lam*kappa^2*sigma^4 + (1-lam)*(thermal_var + eps))
    with thermal_var = thermal_variance(T - T0), which depends on the
    temperatures only, so a caller stepping a batch period by period
    computes it once for the batch. Every term is non-negative, so with
    rounding monotone the computed numerator never exceeds the computed
    denominator and beta needs no clamp. A vanishing denominator (all terms
    zero) degrades to beta = 0; a NaN input, which no clamp can place,
    raises.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    eps = linear_variance
    if np.count_nonzero(np.less_equal(eps, 0.0)):
        raise ValueError("linear_variance must be > 0")
    s2 = model.sigma_T_sq
    denom = lam * model.kappa**2 * s2 * s2 + (1.0 - lam) * (thermal_var + eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.divide((1.0 - lam) * eps, denom)
    if np.count_nonzero(np.isnan(beta)):
        beta = np.where(denom == 0.0, 0.0, beta)
        if np.isnan(beta).any():
            raise ValueError("beta must lie in [0, 1]")
    return beta


def fuse_skew(theta_linear, theta_thermal, beta):
    """Linear fusion of the two phase estimates at the thermal weight beta."""
    return (1.0 - beta) * theta_linear + beta * theta_thermal
