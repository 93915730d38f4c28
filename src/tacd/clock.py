"""Discrete-time clock dynamics shared by the simulator and all estimators.

The local clock is described by a skew (fractional frequency deviation, s/s)
and an offset (s). Skew follows a first-order Gauss-Markov recursion and the
offset integrates the skew once per synchronization period; the scenario
generator runs this recursion for the truth, the estimators use its
state-space form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClockDynamics:
    """Gauss-Markov skew dynamics: state-transfer coefficient, process-noise
    variance (s/s)^2 per period, and synchronization period tau (s)."""

    m: float
    sigma_u_sq: float
    tau: float = 1.0

    def __post_init__(self) -> None:
        # m = 0 is the memoryless limit, still a valid dynamics
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"m must be in [0, 1], got {self.m}")
        if not self.sigma_u_sq > 0.0:
            raise ValueError(f"sigma_u_sq must be > 0, got {self.sigma_u_sq}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class StateSpace:
    """Linear state-space matrices for the (skew, offset) state."""

    A: np.ndarray
    Q_v: np.ndarray
    H: np.ndarray


def build_state_space(dyn: ClockDynamics) -> StateSpace:
    """Compose A, Q_v, H from the dynamics.

    A = [[m, 0], [m*tau, 1]], Q_v = sigma_u_sq * [[1, tau], [tau, tau^2]]
    (rank one, PSD), H = diag(tau, 2).
    """
    m, s, tau = dyn.m, dyn.sigma_u_sq, dyn.tau
    A = np.array([[m, 0.0], [m * tau, 1.0]])
    Q_v = s * np.array([[1.0, tau], [tau, tau * tau]])
    H = np.diag([tau, 2.0])
    return StateSpace(A=A, Q_v=Q_v, H=H)
