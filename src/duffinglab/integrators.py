"""Fixed-step time integration (Euler, RK4) and the explicit second-order
finite-difference recurrence for the homotopy-embedded Duffing equation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (
    FlaggedOverflow,
    ModelKind,
    ModelSpec,
    State,
    Trajectory,
    forcing_omega,
    rhs_fn,
)

__all__ = [
    "Method",
    "IntegrationConfig",
    "step_euler",
    "step_rk4",
    "integrate",
    "iterate_fd_duffing",
]


def step_count(t0: float, t_max: float, h: float) -> float:
    """The steps of a fixed-step run over [t0, t_max], floor((t_max - t0)/h + 0.5),
    as a float so that an unbounded count is inf rather than an error."""
    x = (t_max - t0) / h + 0.5
    return float(math.floor(x)) if math.isfinite(x) else x


class Method(str, Enum):
    EULER = "EULER"
    RK4 = "RK4"


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step run description.

    The step count is fixed at construction (nearest integer to
    (t_max - t0)/h, final partial step never taken) so a run is never
    re-derived from floating accumulation.  ``record_stride`` keeps every
    k-th step, for memory control on long runs.
    """

    h: float
    t0: float
    t_max: float
    method: Method = Method.RK4
    record_stride: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.h, self.t0, self.t_max))):
            raise ValueError("h, t0 and t_max must be finite")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if not self.t_max > self.t0:
            raise ValueError("t_max must exceed t0")
        if (self.t_max - self.t0) / self.h < 1.0:
            raise ValueError("span must cover at least one step")
        stride = self.record_stride
        if not math.isfinite(stride) or int(stride) != stride or stride < 1:
            raise ValueError("record_stride must be a positive integer")

    @property
    def n_steps(self) -> int:
        return int(step_count(self.t0, self.t_max, self.h))


def _euler_update(f, q, p, h, c1):
    dq, dp = f(q, p, c1)
    return q + h * dq, p + h * dp


def _rk4_update(f, q, p, h, c1, c2, c4):
    """One classical RK4 step of ``f(q, p, c)``, broadcasting over lanes.

    c1, c2 and c4 are the forcing values cos(omega*t) at the step's three
    distinct stage times t, t + 0.5*h and t + h; stages 2 and 3 share c2.
    """
    k1q, k1p = f(q, p, c1)
    k2q, k2p = f(q + 0.5 * h * k1q, p + 0.5 * h * k1p, c2)
    k3q, k3p = f(q + 0.5 * h * k2q, p + 0.5 * h * k2p, c2)
    k4q, k4p = f(q + h * k3q, p + h * k3p, c4)
    return (
        q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
        p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def _negative(a, _, out):
    """Unary minus in the ``uf(a, b, out)`` form of a recorded step."""
    return np.negative(a, out)


class _Lane:
    """A lane array while one step is recorded: an input or the result of an
    earlier operation, named by its index ``ref`` in the shared ``tape``.

    Only +, -, * and unary - are recorded, between lanes or with a real
    number.  Anything else (/, **, abs, a ufunc, a comparison, truth testing)
    raises TypeError while recording, so a recorded program is never wrong.
    """

    __slots__ = ("tape", "ref")
    __array_ufunc__ = None  # numpy defers to the methods below, or raises

    def __init__(self, tape, ref):
        self.tape, self.ref = tape, ref

    def _op(self, uf, a, b):
        if not all(isinstance(x, (_Lane, int, float)) for x in (a, b)):
            return NotImplemented
        self.tape.append((uf, a, b))
        return _Lane(self.tape, len(self.tape) - 1)

    def __add__(self, o):
        return self._op(np.add, self, o)

    def __radd__(self, o):
        return self._op(np.add, o, self)

    def __sub__(self, o):
        return self._op(np.subtract, self, o)

    def __rsub__(self, o):
        return self._op(np.subtract, o, self)

    def __mul__(self, o):
        return self._op(np.multiply, self, o)

    def __rmul__(self, o):
        return self._op(np.multiply, o, self)

    def __neg__(self):
        return self._op(_negative, self, 0.0)

    def __bool__(self):
        raise TypeError("a recorded lane has no truth value")

    def __eq__(self, o):
        raise TypeError("a recorded lane cannot be compared")

    __ne__ = __eq__


def record_rk4(f, h):
    """Record one ``_rk4_update`` of ``f`` at step ``h`` for replay over lanes.

    Returns ``(n_temps, bind)``.  ``bind(ins, outs, temps)`` takes the lane
    arrays ins = (q, p, c1, c2, c4), outs = (q_new, p_new) and ``n_temps``
    scratch arrays, and returns the step as a list of ``(uf, a, b, out)``, to
    be run in order as ``uf(a, b, out)``.  These are the operations of
    ``_rk4_update`` on the arrays, in its order and on the same operands, so
    the outputs equal its result bit for bit.  The program reads ``ins``,
    writes only ``outs`` and ``temps``, and reuses a scratch array once the
    value in it has had its last read.  Each real-number operand (``0.5*h``,
    ``h/6``, a model coefficient) is bound once, as a 0-d float64 array
    holding the same double, so that no call converts a Python number; an
    int constant is taken as its float value, as numpy takes it against a
    float64 lane.
    """
    tape = [None] * 5
    q, p, c1, c2, c4 = (_Lane(tape, i) for i in range(5))
    q_new, p_new = _rk4_update(f, q, p, h, c1, c2, c4)
    ops = list(enumerate(tape[5:], 5))
    last_read = {
        x.ref: j for j, (_, a, b) in ops for x in (a, b) if isinstance(x, _Lane)
    }
    # each value's index in [*ins, *outs, *temps]
    buf = {i: i for i in range(5)}
    buf[q_new.ref], buf[p_new.ref] = 5, 6
    free, n_temps = [], 0
    for j, (_, a, b) in ops:
        for ref in {x.ref for x in (a, b) if isinstance(x, _Lane)}:
            if last_read[ref] == j and buf[ref] > 6:
                free.append(buf[ref])
        if j not in buf:
            if not free:
                free.append(7 + n_temps)
                n_temps += 1
            buf[j] = free.pop()

    def bind(ins, outs, temps):
        arrays = [*ins, *outs, *temps]
        consts = {}  # one 0-d array per double, keyed by its bytes: 0.0 is not -0.0

        def arg(x):
            if isinstance(x, _Lane):
                return arrays[buf[x.ref]]
            c = np.array(float(x))
            return consts.setdefault(c.tobytes(), c)

        return [(uf, arg(a), arg(b), arrays[buf[j]]) for j, (uf, a, b) in ops]

    return n_temps, bind


def _checked(q: float, p: float, t: float) -> State:
    s = State(q, p, t)
    if not (math.isfinite(q) and math.isfinite(p)):
        raise FlaggedOverflow(f"non-finite state at t={t}", state=s)
    return s


def step_euler(model: ModelSpec, s: State, h: float) -> State:
    """One explicit Euler update: s + h*rhs(model, s), time advanced by h."""
    if not h > 0:
        raise ValueError("h must be positive")
    try:
        q, p = _euler_update(
            rhs_fn(model), s.q, s.p, h, math.cos(forcing_omega(model) * s.t)
        )
    except (OverflowError, ValueError):
        raise FlaggedOverflow(f"update overflowed at t={s.t}", state=s) from None
    return _checked(q, p, s.t + h)


def step_rk4(model: ModelSpec, s: State, h: float) -> State:
    """One classical 4-stage Runge-Kutta update (4 rhs evaluations)."""
    if not h > 0:
        raise ValueError("h must be positive")
    w, t = forcing_omega(model), s.t
    try:
        q, p = _rk4_update(
            rhs_fn(model), s.q, s.p, h,
            math.cos(w * t), math.cos(w * (t + 0.5 * h)), math.cos(w * (t + h)),
        )
    except (OverflowError, ValueError):
        raise FlaggedOverflow(f"update overflowed at t={s.t}", state=s) from None
    return _checked(q, p, s.t + h)


def integrate(model: ModelSpec, s0: State, cfg: IntegrationConfig) -> Trajectory:
    """Iterate the configured stepper from s0 over the configured span.

    Records s0, every ``record_stride``-th step and the final state in columns
    sized before the first step; times are t0 + i*h, never accumulated.  On
    overflow the finite prefix is returned with ``diverged`` set, not raised.

    The forcing is evaluated once per distinct stage time: an RK4 step
    reuses the previous step's cos(omega*(t + h)) as its cos(omega*t) exactly
    when the two times are equal as floats, so the result is bit for bit
    that of evaluating the forcing at every stage.
    """
    if s0.t != cfg.t0:
        raise ValueError("s0.t must equal cfg.t0")
    f = rhs_fn(model)
    cos, w = math.cos, forcing_omega(model)
    rk4 = cfg.method is Method.RK4
    h, t0, n, stride = cfg.h, cfg.t0, cfg.n_steps, cfg.record_stride

    ts, qs, ps = np.empty((3, n // stride + 1 + (n % stride != 0)))
    ts[0], qs[0], ps[0] = t0, s0.q, s0.p
    q, p = s0.q, s0.p
    t_end = c4 = math.nan
    diverged = False
    for i in range(1, n + 1):
        t = t0 + (i - 1) * h
        try:
            c1 = c4 if t == t_end else cos(w * t)
            if rk4:
                t_end = t + h
                c4 = cos(w * t_end)
                q_new, p_new = _rk4_update(
                    f, q, p, h, c1, cos(w * (t + 0.5 * h)), c4
                )
            else:
                q_new, p_new = _euler_update(f, q, p, h, c1)
        except (OverflowError, ValueError):
            q_new = p_new = math.inf
        if not (math.isfinite(q_new) and math.isfinite(p_new)):
            diverged = True
            break
        q, p = q_new, p_new
        if i % stride == 0:
            k = i // stride
            ts[k], qs[k], ps[k] = t0 + i * h, q, p
    last = i - 1 if diverged else n  # the last finite step, recorded if off-stride
    k = last // stride + 1
    if last % stride:
        ts[k], qs[k], ps[k] = t0 + last * h, q, p
        k += 1
    return Trajectory(ts[:k], qs[:k], ps[:k], model, diverged)


# The ModelSpec fields iterate_fd_duffing reads, in the order it unpacks them.
FD_FIELDS = ("lambda_h", "alpha", "beta", "gamma", "omega")


def iterate_fd_duffing(
    params: ModelSpec, x0: float, x1: float, h: float, n: int
) -> np.ndarray:
    """Explicit second-difference recurrence for the embedded Duffing equation.

    Starting from displacements x0, x1, each next value solves

        x[k+1] = ((2 + h*l)*x[k] - x[k-1]
                  - h^2*l*(alpha*x[k] + beta*x[k]^3)
                  + h^2*l*gamma*cos(omega*k*h)) / (1 + h*l)

    with l = lambda_h: the damping is fixed at 1, so ``delta`` is never read
    (nor ``coupling_a``; the fields read are ``FD_FIELDS``).  Returns x[0..n];
    if an element overflows the sequence is truncated at the last finite value
    (a shorter-than-requested result is the overflow flag).
    """
    if params.kind is not ModelKind.DUFFING_HOMOTOPY:
        raise ValueError("the recurrence is defined for DUFFING_HOMOTOPY models")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not h > 0:
        raise ValueError("h must be positive")

    lam, al, b, g, w = (getattr(params, name) for name in FD_FIELDS)
    hl = h * lam
    h2l = h * h * lam
    denom = 1.0 + hl

    xs = np.empty(n + 1)
    xs[0], xs[1] = x0, x1
    x_prev, xk = float(x0), float(x1)
    for k in range(1, n):
        try:
            x_next = (
                (2.0 + hl) * xk
                - x_prev
                - h2l * (al * xk + b * xk * xk * xk)
                + h2l * g * math.cos(w * k * h)
            ) / denom
        except (OverflowError, ValueError):
            return xs[: k + 1].copy()
        if not math.isfinite(x_next):
            return xs[: k + 1].copy()
        xs[k + 1] = x_next
        x_prev, xk = xk, x_next
    return xs
