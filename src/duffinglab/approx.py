"""Approximate-solution machinery: the undamped closed form, the truncated
homotopy series, the Bessel-based error model, and Picard iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, State, Trajectory, forcing_omega, rhs_fn

__all__ = [
    "HomotopyApprox",
    "DEFAULT_HOMOTOPY",
    "analytical_undamped",
    "homotopy_approx",
    "bessel_j0",
    "error_model",
    "error_bound",
    "picard_solve",
]


def _cos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def _sin(x):
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


@dataclass(frozen=True)
class HomotopyApprox:
    """Truncated series x(t) = (amplitude + correction_coeff*lambda_h^2)*cos(omega*t).

    ``correction_coeff`` is a stored datum, not a derived quantity; no general
    closed form for it is assumed.
    """

    amplitude: float
    omega: float
    lambda_h: float
    correction_coeff: float

    def __post_init__(self):
        if not 0.0 <= self.lambda_h <= 1.0:
            raise ValueError(f"lambda_h must lie in [0, 1], got {self.lambda_h}")
        for name in ("amplitude", "omega", "correction_coeff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


# Worked low-amplitude, low-frequency instance; the CLI default.
DEFAULT_HOMOTOPY = HomotopyApprox(
    amplitude=0.05, omega=0.2, lambda_h=0.05, correction_coeff=0.00015625
)


def analytical_undamped(A: float, B: float, omega: float, t):
    """Undamped oscillator closed form A*cos(omega*t) + B*sin(omega*t)."""
    return A * _cos(omega * t) + B * _sin(omega * t)


def homotopy_approx(cfg: HomotopyApprox, t):
    """Evaluate the truncated homotopy series at time t (scalar or array)."""
    return (cfg.amplitude + cfg.correction_coeff * cfg.lambda_h**2) * _cos(
        cfg.omega * t
    )


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero, by its power series.

    Terms (-1)^k (x/2)^(2k) / (k!)^2 are summed until the next term drops
    below 1e-16*(1 + |partial sum|).  Supported for |x| <= 50; note the
    alternating series loses float64 accuracy gradually as |x| grows toward
    that bound (the terms peak near (x/2)^x / x! before cancelling).
    """
    if not abs(x) <= 50.0:
        raise ValueError("bessel_j0 supports |x| <= 50 only")
    z = 0.25 * x * x
    total = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        term = -term * z / (k * k)
        if abs(term) < 1e-16 * (1.0 + abs(total)):
            return total
        total += term


def error_model(A_coef: float, lambda_h: float) -> float:
    """Series-truncation error estimate A_coef * J0(lambda_h)."""
    if not 0.0 <= lambda_h <= 1.0:
        raise ValueError(f"lambda_h must lie in [0, 1], got {lambda_h}")
    return A_coef * bessel_j0(lambda_h)


def error_bound(A_coef: float) -> float:
    """Upper bound |A_coef| on the error model (|J0| never exceeds 1)."""
    return abs(A_coef)


def picard_solve(model: ModelSpec, s0: State, grid, k: int) -> Trajectory:
    """Successive-approximation solve of the integral form of the IVP.

    The zeroth iterate is the constant s0; each subsequent iterate is

        x[j+1](t) = s0 + integral from s0.t to t of rhs(model, x[j])

    with the integral taken by the composite trapezoid rule on ``grid``.
    Returns the k-th iterate sampled on the grid, whose ``t`` column is
    ``grid`` itself when that is a float64 array.  A non-finite iterate
    aborts, returning the last finite iterate flagged as diverged.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a one-dimensional, non-empty sequence")
    if grid[0] != s0.t:
        raise ValueError("grid must start at s0.t")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid times must be strictly increasing")
    if int(k) != k or k < 0:
        raise ValueError("iteration count must be a nonnegative integer")

    f = rhs_fn(model)
    dt = np.diff(grid)
    q = np.full(grid.shape, s0.q)
    p = np.full(grid.shape, s0.p)
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = np.cos(forcing_omega(model) * grid)
        for _ in range(int(k)):
            dq, dp = f(q, p, forcing)
            q_new = s0.q + np.concatenate(
                ([0.0], np.cumsum(0.5 * (dq[1:] + dq[:-1]) * dt))
            )
            p_new = s0.p + np.concatenate(
                ([0.0], np.cumsum(0.5 * (dp[1:] + dp[:-1]) * dt))
            )
            if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(p_new))):
                diverged = True
                break
            q, p = q_new, p_new

    return Trajectory(grid, q, p, model, diverged)
