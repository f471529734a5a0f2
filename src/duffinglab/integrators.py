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


def check_span(t0: float, t_max: float, h: float) -> None:
    """Refuse a fixed-step run over [t0, t_max] at step h unless all three are
    finite, h > 0 and the span covers at least one step."""
    if not all(map(math.isfinite, (t0, t_max, h))):
        raise ValueError("t0, t_max and h must be finite")
    if not h > 0:
        raise ValueError("h must be positive")
    if not t_max > t0:
        raise ValueError("t_max must exceed t0")
    if (t_max - t0) / h < 1.0:
        raise ValueError("span must cover at least one step")


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
        check_span(self.t0, self.t_max, self.h)
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


def _lanes(*xs):
    return [x.ref for x in xs if isinstance(x, _Lane)]


def record_rk4(f, h):
    """Record one ``_rk4_update`` of ``f`` at step ``h`` for replay over lanes.

    Returns ``(widths, bind)``.  ``bind(ins, scratch)`` takes the arrays
    ins = (x, c1, c2, c4), where x is the (2, L) state with q in row 0 and p
    in row 1, and one (w, L) scratch array per w in ``widths``, and returns
    the step as a list of ``(uf, a, b, out)``, to be run in order as
    ``uf(a, b, out)``.  The program overwrites x with (q_new, p_new), writes
    otherwise only ``scratch``, and reuses a scratch row once the value in
    it has had its last read.  The calls that write q_new and p_new run
    last, so no call reads a row of x after it has been written.

    The update does the same operations on q and on p.  Its partner lanes
    are (q, p), each stage's (kq, kp) and (q_new, p_new); two operations are
    partners when they call the same ufunc and each operand is a partner
    lane or the same constant, and their results are partner lanes in turn.
    Partner operations run as one call where the later one ran, unless the
    earlier one's result is read before then, and the partner lanes such a
    call reads or writes are the rows of one (2, L) buffer.  So every call
    is one of ``_rk4_update``'s operations on its operands, or two at once.
    An element-wise operation gives the same bits in any layout, except for
    which NaN it returns when both operands are NaN: the outputs equal its
    result bit for bit wherever that is not NaN, and are NaN where it is.

    Each real-number operand (``0.5*h``, ``h/6``, a model coefficient) is
    bound once, as a 0-d float64 array holding the same double, so that no
    call converts a Python number; an int constant is taken as its float
    value, as numpy takes it against a float64 lane.
    """
    tape = [None] * 5
    q, p, c1, c2, c4 = (_Lane(tape, i) for i in range(5))
    pairs = []

    def stage(q, p, c):
        pairs.append(f(q, p, c))
        return pairs[-1]

    pairs.append(_rk4_update(stage, q, p, h, c1, c2, c4))
    ops = list(enumerate(tape[5:], 5))
    mate = {0: (1, 0), 1: (0, 1)}  # a lane's partner, and its row in their buffer
    for a, b in pairs:
        if all(isinstance(x, _Lane) and x.ref > 4 and x.ref not in mate
               for x in (a, b)) and a.ref != b.ref:
            mate[a.ref], mate[b.ref] = (b.ref, 0), (a.ref, 1)

    def key(x, flip):
        if isinstance(x, _Lane):
            return mate[x.ref][0] if flip else x.ref
        return np.float64(x).tobytes()  # 0.0 is not -0.0

    later, seen = {}, {}  # later[i] = j: partners i < j, run as one call at j
    for j, (uf, a, b) in ops:
        rows = {mate.get(r, (0, None))[1] for r in _lanes(a, b)}
        row = rows.pop() if rows in ({0}, {1}) else None
        i = None if row is None else seen.pop((uf, key(a, True), key(b, True)), None)
        if i is not None and mate.get(i, (j, 1 - row)) == (j, 1 - row) \
                and mate.get(j, (i, row)) == (i, row):
            mate[i], mate[j], later[i] = (j, 1 - row), (i, row), j
        else:
            seen[uf, key(a, False), key(b, False)] = j
    # An earlier partner whose result is read before the later one ran stays
    # where it was, and moving it back can make another such read.
    while bad := {r for j, (_, a, b) in ops for r in _lanes(a, b)
                  if later.get(r, r) >= later.get(j, j)}:
        for i in bad:
            del later[i]
    earlier = {j: i for i, j in later.items()}
    units = []  # (uf, a, b, the refs it writes, in row order)
    for j, (uf, a, b) in ops:
        if j in earlier:
            r0 = j if mate[j][1] == 0 else earlier[j]
            units.append((*tape[r0], (r0, mate[r0][0])))
        elif j not in later:
            units.append((uf, a, b, (j,)))
    # p_new's unit is last, and q_new's is moved behind it when they are two:
    # p's final sum may read q (as k1p, say) after q_new is made.
    q_new, p_new = _lanes(*pairs[-1])
    units.sort(key=lambda unit: unit[3] == (q_new,))
    # the lanes each unit reads: a joint call reads its operands' partners too
    reads = [[*_lanes(a, b), *(mate[r][0] for r in _lanes(a, b) if len(outs) > 1)]
             for _, a, b, outs in units]
    # lanes that a joint call reads or writes are stacked, the others single
    stacked = {r for u, (*_, outs) in enumerate(units) if len(outs) > 1
               for r in (*reads[u], *outs)}
    last = {r: u for u, (*_, outs) in enumerate(units) for r in (*reads[u], *outs)}

    # Each lane's home (buffer, row): buffer 0 is x, (q_new, p_new) included,
    # and 1 + k is scratch[k].  A row is free again after its lane's last read,
    # and the most recently freed row is taken first, so that a call overwrites
    # an operand it has just read where it can.  A stacked lane takes a buffer
    # whose two rows are free, for itself and its partner.
    home = {0: (0, 0), 1: (0, 1), q_new: (0, 0), p_new: (0, 1)}
    free, widths = [], []

    def done(refs, u):  # the scratch rows of refs whose last use is u
        return [home[r] for r in dict.fromkeys(refs)
                if last[r] == u and home.get(r, (0,))[0] > 0]

    def new(width):
        widths.append(width)
        return len(widths)

    for u, (*_, outs) in enumerate(units):
        free += done(reads[u], u)
        r = outs[0]
        if r in stacked and r not in home:
            row = mate[r][1]
            k = next((k for k, i in reversed(free) if i == row and (k, 1 - row) in free),
                     None) or new(2)
            free = [f for f in free if f[0] != k]
            home[r], home[mate[r][0]] = (k, row), (k, 1 - row)
        elif r not in home:
            home[r] = free.pop() if free else (new(1), 0)
        free += done(outs, u)

    def bind(ins, scratch):
        x, *cs = ins
        bufs = [x, *scratch]
        # One array object per row: numpy runs an in-place call cheaply only
        # when its output is the very object it reads, not another view of
        # the same memory.
        views, consts = {}, {}  # consts: one 0-d array per double, keyed by its bytes

        def view(r, whole):
            if r in (2, 3, 4):
                return cs[r - 2]
            k, row = home[r]
            if whole:
                return bufs[k]
            if (k, row) not in views:
                views[k, row] = bufs[k][row]
            return views[k, row]

        def arg(x, whole):
            if isinstance(x, _Lane):
                return view(x.ref, whole)
            c = np.array(float(x))
            return consts.setdefault(c.tobytes(), c)

        return [
            (uf, arg(a, joint), arg(b, joint), view(outs[0], joint))
            for uf, a, b, outs in units
            for joint in [len(outs) > 1]
        ]

    return tuple(widths), bind


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
