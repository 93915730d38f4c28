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


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Linear state-space matrices for the (skew, offset) state.

    A must be [[a00, 0], [a10, 1]] and H diagonal, diag(h0, h1), the form
    build_state_space gives: the Gaussian-sum filter reads only these four
    entries and drops the zero and unit ones from its products, so any other
    A or H raises. It reads them and the entries q00, q01, q11 of Q_v as
    operands (read-only 0-d arrays), which unpickling builds again from A,
    Q_v and H. Instances compare and hash by identity, as arrays cannot.
    """

    A: np.ndarray
    Q_v: np.ndarray
    H: np.ndarray
    a00: np.ndarray = field(init=False, repr=False)
    a10: np.ndarray = field(init=False, repr=False)
    h0: np.ndarray = field(init=False, repr=False)
    h1: np.ndarray = field(init=False, repr=False)
    q00: np.ndarray = field(init=False, repr=False)
    q01: np.ndarray = field(init=False, repr=False)
    q11: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        A, Q_v, H = (np.asarray(M, dtype=float) for M in (self.A, self.Q_v, self.H))
        if A.shape != (2, 2) or Q_v.shape != (2, 2) or H.shape != (2, 2):
            raise ValueError("A, Q_v and H must be 2x2")
        if A[0, 1] != 0.0 or A[1, 1] != 1.0:
            raise ValueError(f"A must be [[a00, 0], [a10, 1]], got {A.tolist()}")
        if H[0, 1] != 0.0 or H[1, 0] != 0.0:
            raise ValueError(f"H must be diagonal, got {H.tolist()}")
        entries = dict(a00=A[0, 0], a10=A[1, 0], h0=H[0, 0], h1=H[1, 1], q00=Q_v[0, 0], q01=Q_v[0, 1], q11=Q_v[1, 1])
        values = dict(A=A, Q_v=Q_v, H=H, **{name: operand(x) for name, x in entries.items()})
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return StateSpace, (self.A, self.Q_v, self.H)


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
