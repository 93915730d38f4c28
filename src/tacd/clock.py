"""Discrete-time clock dynamics shared by the simulator and all estimators.

The local clock is described by a skew (fractional frequency deviation, s/s)
and an offset (s). Skew follows a first-order Gauss-Markov recursion and the
offset integrates the skew once per synchronization period; the scenario
generator runs this recursion for the truth, the estimators use its
state-space form.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def operand(value) -> np.ndarray:
    """value as a read-only 0-d float64 array. The filters' scalar operands
    are these: numpy steps a ufunc on one faster than on a Python float or
    a numpy scalar, with the same float64 arithmetic."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


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
    """Linear state-space model of the (skew, offset) state, a function of
    the dynamics alone: A = [[m, 0], [m*tau, 1]], Q_v = sigma_u_sq *
    [[1, tau], [tau, tau^2]] (rank one, PSD), H = diag(tau, 2).

    The Gaussian-sum filter reads the entries a00, a10, h0, h1 of A and H
    and q00, q01, q11 of Q_v as operands (read-only 0-d arrays), computed
    once from dyn; A, Q_v and H are built from them on each read, so a
    write into a returned matrix does not reach the model. Instances
    compare and hash by dyn.
    """

    dyn: ClockDynamics
    a00: np.ndarray = field(init=False, repr=False, compare=False)
    a10: np.ndarray = field(init=False, repr=False, compare=False)
    h0: np.ndarray = field(init=False, repr=False, compare=False)
    h1: np.ndarray = field(init=False, repr=False, compare=False)
    q00: np.ndarray = field(init=False, repr=False, compare=False)
    q01: np.ndarray = field(init=False, repr=False, compare=False)
    q11: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m, s, tau = self.dyn.m, self.dyn.sigma_u_sq, self.dyn.tau
        entries = dict(a00=m, a10=m * tau, h0=tau, h1=2.0, q00=s * 1.0, q01=s * tau, q11=s * (tau * tau))
        for name, x in entries.items():
            object.__setattr__(self, name, operand(x))

    @property
    def A(self) -> np.ndarray:
        return np.array([[self.a00, 0.0], [self.a10, 1.0]])

    @property
    def Q_v(self) -> np.ndarray:
        return np.array([[self.q00, self.q01], [self.q01, self.q11]])

    @property
    def H(self) -> np.ndarray:
        return np.diag([self.h0, self.h1])


def build_state_space(dyn: ClockDynamics) -> StateSpace:
    """The state-space form of the dynamics."""
    return StateSpace(dyn)
