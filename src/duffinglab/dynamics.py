"""Model definitions: right-hand sides, Jacobians, and the ecology invariant.

Every dynamical system handled by this package is a two-dimensional
non-autonomous flow described by a :class:`ModelSpec`.  The spec is the single
source of truth: integrators, Lyapunov estimation and parameter sweeps all
evaluate the same formulas defined here.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "ModelKind",
    "ModelSpec",
    "State",
    "Trajectory",
    "FlaggedOverflow",
    "rhs",
    "jacobian",
    "conserved_offset",
]


class ModelKind(str, Enum):
    """The supported model family."""

    DUFFING_CLASSIC = "DUFFING_CLASSIC"
    DUFFING_HOMOTOPY = "DUFFING_HOMOTOPY"
    DUFFING_CHAOS = "DUFFING_CHAOS"
    DUFFING_QUINTIC = "DUFFING_QUINTIC"
    ECOLOGY = "ECOLOGY"
    LINEAR_TEST = "LINEAR_TEST"


class FlaggedOverflow(RuntimeError):
    """Non-fatal signal that an evaluation produced a non-finite state.

    Integrators catch this and return partial results flagged as diverged;
    sweeps record the sample as diverged and keep going.
    """

    def __init__(self, message: str, state: "State | None" = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class ModelSpec:
    """One dynamical system plus its coefficient set.

    Which fields are read depends on ``kind`` and is listed, per kind, in
    ``MODEL_FIELDS``; unread fields are ignored, never rejected.

    kind                  dq/dt   dp/dt
    -------------------   -----   ------------------------------------------
    DUFFING_CLASSIC       p       g*cos(w*t) - d*p - a*q - b*q^3
    DUFFING_HOMOTOPY      p       l*(g*cos(w*t) - d*p - a*q - b*q^3)
    DUFFING_CHAOS         p       q - q^3 - d*p + g*cos(w*t)
    DUFFING_QUINTIC       p       q + b*q^3 - d*p + g*cos(w*t) - g*q^5
    ECOLOGY               dq = -A*p - cos(w*t) - q^3 + a*q^5,  dp = b*dq
    LINEAR_TEST           p       -d*p - a*q

    with d=delta, a=alpha, b=beta, g=gamma, w=omega, l=lambda_h,
    A=coupling_a.  For ECOLOGY the second rate is defined as ``beta`` times
    the freshly computed first rate, which makes ``p - beta*q`` an exact
    constant of the motion (see :func:`conserved_offset`).
    """

    kind: ModelKind
    delta: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    omega: float = 0.0
    lambda_h: float = 1.0
    coupling_a: float = 0.0

    def __post_init__(self):
        if "lambda_h" in MODEL_FIELDS[self.kind]:
            if not 0.0 <= self.lambda_h <= 1.0:
                raise ValueError(
                    f"lambda_h must lie in [0, 1], got {self.lambda_h}"
                )


@dataclass(frozen=True)
class State:
    """Instantaneous phase-space point (q, p) at time t.

    q is displacement x for the Duffing kinds and the radioactivity rate for
    ECOLOGY; p is velocity v, respectively the cancer-incidence rate.
    """

    q: float
    p: float
    t: float = 0.0


@dataclass(eq=False)
class Trajectory:
    """A solver's samples as float64 columns: times ``t``, states ``q``, ``p``.

    ``diverged`` is set when the producing integration aborted on overflow,
    in which case the columns hold the finite prefix.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    model: ModelSpec
    diverged: bool = False

    def __post_init__(self):
        t, q, p = (np.asarray(c, dtype=float) for c in (self.t, self.q, self.p))
        if t.ndim != 1 or not t.size or not t.shape == q.shape == p.shape:
            raise ValueError("t, q and p must be non-empty 1-D columns of equal length")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("trajectory times must be strictly increasing")
        self.t, self.q, self.p = t, q, p

    @property
    def samples(self) -> list[State]:
        """The samples as ``State``s, built anew on every access."""
        return list(map(State, self.q.tolist(), self.p.tolist(), self.t.tolist()))


# One builder per kind returns its (rhs_fn, jac_fn) pair.  Its parameters are
# exactly the ModelSpec fields the kind reads, omega included for the forced
# kinds, whose rhs takes the forcing value cos(omega*t) in place of omega.


def _classic(delta, alpha, beta, gamma, omega):
    def f(q, p, c):
        return p, gamma * c - delta * p - alpha * q - beta * q * q * q
    def j(q, p):
        return 0.0, 1.0, -alpha - 3.0 * beta * q * q, -delta
    return f, j


def _homotopy(lambda_h, delta, alpha, beta, gamma, omega):
    def f(q, p, c):
        return p, lambda_h * (gamma * c - delta * p - alpha * q - beta * q * q * q)
    def j(q, p):
        return 0.0, 1.0, -lambda_h * (alpha + 3.0 * beta * q * q), -lambda_h * delta
    return f, j


def _chaos(delta, gamma, omega):
    def f(q, p, c):
        return p, q - q * q * q - delta * p + gamma * c
    def j(q, p):
        return 0.0, 1.0, 1.0 - 3.0 * q * q, -delta
    return f, j


def _quintic(delta, beta, gamma, omega):
    def f(q, p, c):
        q3 = q * q * q
        return p, q + beta * q3 - delta * p + gamma * c - gamma * q3 * q * q
    def j(q, p):
        q2 = q * q
        return 0.0, 1.0, 1.0 + 3.0 * beta * q2 - 5.0 * gamma * q2 * q2, -delta
    return f, j


def _ecology(coupling_a, alpha, beta, omega):
    def f(q, p, c):
        q3 = q * q * q
        dq = -coupling_a * p - c - q3 + alpha * q3 * q * q
        return dq, beta * dq
    def j(q, p):
        q2 = q * q
        e = -3.0 * q2 + 5.0 * alpha * q2 * q2
        return e, -coupling_a, beta * e, -beta * coupling_a
    return f, j


def _linear(delta, alpha):
    def f(q, p, c):
        return p, -delta * p - alpha * q
    def j(q, p):
        return 0.0, 1.0, -alpha, -delta
    return f, j


_BUILDERS = {
    ModelKind.DUFFING_CLASSIC: _classic,
    ModelKind.DUFFING_HOMOTOPY: _homotopy,
    ModelKind.DUFFING_CHAOS: _chaos,
    ModelKind.DUFFING_QUINTIC: _quintic,
    ModelKind.ECOLOGY: _ecology,
    ModelKind.LINEAR_TEST: _linear,
}

# The ModelSpec fields each kind reads: every other field leaves its runs unchanged.
MODEL_FIELDS = {k: tuple(inspect.signature(b).parameters) for k, b in _BUILDERS.items()}


def _bind(model: ModelSpec) -> tuple[Callable, Callable]:
    kind = model.kind
    return _BUILDERS[kind](*[getattr(model, name) for name in MODEL_FIELDS[kind]])


def rhs_fn(model: ModelSpec) -> Callable:
    """Bind a model to a fast ``f(q, p, c) -> (dq, dp)`` callable.

    ``c`` is the forcing value cos(omega*t) at the evaluation time, with
    omega from :func:`forcing_omega` or a sweep's frequency grid.  The caller
    computes it, so one value serves every stage that shares a time.  All
    arithmetic broadcasts, so q, p and c may be floats or arrays, e.g. one
    lane per sweep frequency.  An unforced kind ignores ``c``.

    The callable uses only ``+``, ``-`` (binary and unary) and ``*`` on
    ``q``, ``p`` and ``c``, with each other or with real numbers: a sweep
    records one RK4 step of it (``integrators.record_rk4``), which rejects
    any other operation with TypeError.  The recording binds each real number
    once, as a 0-d float64 array holding the same double, so an int constant
    is taken as its float value.
    """
    return _bind(model)[0]


def forcing_omega(model: ModelSpec) -> float:
    """The omega in the forcing value cos(omega*t) that ``rhs_fn`` takes.

    0 for a kind that does not read ``omega`` (the unforced LINEAR_TEST):
    any value there, even one for which omega*t overflows, leaves its runs
    unchanged.
    """
    return model.omega if "omega" in MODEL_FIELDS[model.kind] else 0.0


def jac_fn(model: ModelSpec) -> Callable:
    """Bind a model to ``j(q, p) -> (j11, j12, j21, j22)``.

    Entries are the exact partials of (dq, dp) with respect to (q, p); time
    enters the flows only through the forcing term, which is state-free, so
    no time column exists.
    """
    return _bind(model)[1]


def rhs(model: ModelSpec, s: State) -> tuple[float, float]:
    """Time derivative (dq/dt, dp/dt) of the model at state ``s``.

    Raises :class:`FlaggedOverflow` carrying ``s`` if the result is not
    finite.
    """
    dq, dp = rhs_fn(model)(s.q, s.p, math.cos(forcing_omega(model) * s.t))
    if not (math.isfinite(dq) and math.isfinite(dp)):
        raise FlaggedOverflow(f"non-finite rhs at t={s.t}", state=s)
    return dq, dp


def jacobian(model: ModelSpec, s: State) -> np.ndarray:
    """2x2 matrix of exact partials of (dq, dp) with respect to (q, p)."""
    j11, j12, j21, j22 = jac_fn(model)(s.q, s.p)
    out = np.array([[j11, j12], [j21, j22]], dtype=float)
    if not np.all(np.isfinite(out)):
        raise FlaggedOverflow(f"non-finite jacobian at t={s.t}", state=s)
    return out


def conserved_offset(model: ModelSpec, s: State) -> float:
    """The ECOLOGY constant of motion p - beta*q.

    Because dp/dt is defined as beta times dq/dt, this offset is invariant
    along any exact solution; its numerical drift measures integrator error.
    """
    if model.kind is not ModelKind.ECOLOGY:
        raise ValueError("conserved_offset is defined for ECOLOGY models only")
    return s.p - model.beta * s.q
