"""Frequency self-correction from measured temperature.

A quadratic temperature-skew map converts a (noisy) oscillator temperature
reading into a skew estimate, together with the closed-form bias and second
moment of that estimate's error under Gaussian sensor noise.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TempSkewModel:
    """Quadratic temperature-skew map: skew = kappa*(T - T0)^2 + theta0.

    kappa is in fractional units per degC^2 (ppm inputs are converted at
    configuration load; the default is 0.04 ppm), T0 in degC, theta0
    dimensionless (s/s), and sigma_T_sq is the temperature sensor noise
    variance in degC^2.
    """

    kappa: float = 4e-8
    T0: float = 25.0
    theta0: float = 0.0
    sigma_T_sq: float = 0.1

    def __post_init__(self) -> None:
        if self.sigma_T_sq < 0.0:
            raise ValueError(f"sigma_T_sq must be >= 0, got {self.sigma_T_sq}")


def skew_from_temperature(temp_meas: float, model: TempSkewModel) -> float:
    """Self-corrected skew estimate from a temperature reading."""
    d = temp_meas - model.T0
    return model.kappa * d * d + model.theta0


def thermal_bias(model: TempSkewModel) -> float:
    """Bias of the self-corrected skew estimate: kappa * sigma_T_sq.

    Independent of the operating temperature (the linear sensor-noise term
    averages out; only the squared-noise term survives).
    """
    return model.kappa * model.sigma_T_sq


def thermal_second_moment(model: TempSkewModel, temp: float) -> float:
    """Second moment of the thermal estimate error at operating temperature.

    kappa^2 * (4*sigma_T_sq*(T - T0)^2 + 3*sigma_T_sq^2); the 3*sigma^4 term
    is the Gaussian fourth moment of the squared sensor noise.
    """
    d = temp - model.T0
    s2 = model.sigma_T_sq
    return model.kappa**2 * (4.0 * s2 * d * d + 3.0 * s2 * s2)
