"""Fixed control kernel that measures the host's speed during a run.

On a shared VM the host slows the whole process, CPU time included, by up
to 2x for stretches of a second to minutes. loop.py times this kernel
between every two commands; run.py divides each command's time by the mean
of the two control times around it, which cancels the host's speed and
leaves the program's own cost.

The kernel is a 2-state Kalman filter over small numpy arrays with a
log-determinant, a solve and a digamma per step, the same instruction mix
as tacd's filters (interpreter dispatch around tiny numpy calls). It shares
no code with tacd, so no change to the program moves it. Its result is a
checksum, compared with CHECKSUM so a changed kernel cannot go unnoticed.

    python3 bench/control.py     # prints the checksum and the kernel's time
"""
from __future__ import annotations

import time

import numpy as np
from scipy.special import digamma

STEPS = 3000
# What one kernel call counts as, in seconds, when times are scaled to the
# reference host speed (see run.py). About the kernel's time on an unloaded
# 2-vCPU x86 VM with Python 3.11, numpy 2.4, scipy 1.17.
REFERENCE_S = 0.1
CHECKSUM = -581.884379008228

# Control for set-up, timed by run.py between set-up probes the same way:
# a fresh interpreter importing the third-party modules tacd imports, but
# not tacd. SETUP_REFERENCE_S is about its time on the same unloaded VM.
SETUP_SNIPPET = "import time, numpy, scipy.special; print(repr(time.monotonic()))"
SETUP_REFERENCE_S = 0.3


def kernel(steps: int = STEPS) -> float:
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = 1e-3 * np.eye(2)
    R = 0.5 * np.eye(2)
    H = np.eye(2)
    x = np.zeros(2)
    P = np.eye(2)
    acc = 0.0
    for k in range(steps):
        x = F @ x
        P = F @ P @ F.T + Q
        z = np.array([np.sin(0.01 * k), np.cos(0.01 * k)])
        S = H @ P @ H.T + R
        S = 0.5 * (S + S.T)
        _, logdet = np.linalg.slogdet(S)
        K = np.linalg.solve(S, H @ P).T
        r = z - H @ x
        x = x + K @ r
        P = (np.eye(2) - K @ H) @ P
        acc += float(logdet) + float(digamma(2.5 + 0.001 * (k % 7))) + float(np.outer(r, r).sum())
    return acc


def timed() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel call."""
    c0, t0 = time.process_time(), time.perf_counter()
    value = kernel()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if abs(value - CHECKSUM) > 1e-6 * abs(CHECKSUM):
        raise SystemExit(f"control kernel checksum {value!r} != {CHECKSUM!r}")
    return wall, cpu


if __name__ == "__main__":
    print(repr(kernel()))
    print(" ".join(f"{timed()[0]:.4f}" for _ in range(5)), "s")
