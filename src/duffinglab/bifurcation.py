"""Frequency-sweep engine for terminal-state bifurcation data, plus the named
parameter presets used throughout the package and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import LyapunovConfig
from .dynamics import ModelKind, ModelSpec, State, rhs_fn
from .integrators import IntegrationConfig, Method, record_rk4, step_count

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "DynamicsPreset",
    "FdPreset",
    "sweep_omega",
    "preset",
    "PRESET_IDS",
]

# Steps a sweep runs between two tests of its lanes while none has died.
_BLOCK = 64


@dataclass(frozen=True)
class SweepConfig:
    """One omega sweep: a model template integrated once per grid frequency.

    The grid is the closed uniform grid of ``n_samples`` points including
    both endpoints; every sample starts from the shared ``s0``.
    """

    model_template: ModelSpec
    omega_min: float
    omega_max: float
    n_samples: int
    s0: State
    t_max: float
    h: float

    def __post_init__(self):
        bounds = (self.omega_min, self.omega_max, self.s0.t, self.t_max, self.h)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("omega bounds, s0.t, t_max and h must be finite")
        if not self.omega_min < self.omega_max:
            raise ValueError("omega_min must be below omega_max")
        if not math.isfinite(self.omega_max - self.omega_min):
            raise ValueError(
                f"omega window [{self.omega_min}, {self.omega_max}] is too wide:"
                " its span overflows"
            )
        n = self.n_samples
        if not math.isfinite(n) or int(n) != n or n < 2:
            raise ValueError("n_samples must be an integer >= 2")
        if not self.t_max > self.s0.t:
            raise ValueError("t_max must exceed the initial time")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if (self.t_max - self.s0.t) / self.h < 1.0:
            raise ValueError("span must cover at least one step")


@dataclass(frozen=True)
class SweepRecord:
    """Terminal state of one sweep sample.

    ``diverged`` marks samples whose integration overflowed; for those the
    terminal values are the last finite state reached.  The conservation
    residual is |(y-beta*x)_final - (y-beta*x)_initial| for ECOLOGY templates
    and 0 for all others.
    """

    omega: float
    x_final: float
    y_final: float
    conservation_residual: float
    diverged: bool


def sweep_omega(cfg: SweepConfig) -> list[SweepRecord]:
    """One record per grid frequency, in ascending omega order.

    All lanes advance in lockstep as one vectorized batch through the same
    RK4 update that ``integrate`` uses, recorded once (``record_rk4``) and
    replayed every step into preallocated lane buffers, the state (q, p) as
    the rows of one (2, L) array so that a q/p pair of operations runs as
    one call, with the forcing
    evaluated by the same rule (once per distinct stage time), so lane i is
    bit-for-bit the scalar RK4 run of the template at omega_i.  Lanes that go
    non-finite are frozen at their last finite state and flagged; the rest
    keep going.  The lanes are tested once per block of ``_BLOCK`` steps, and
    a block in which one dies is run again from its start, tested after
    every step.
    """
    omegas = np.linspace(cfg.omega_min, cfg.omega_max, int(cfg.n_samples))
    model = cfg.model_template
    h, t0 = cfg.h, cfg.s0.t
    n_steps = int(step_count(t0, cfg.t_max, h))
    # Lane buffers owned by this call.  The state, q in row 0 and p in row 1,
    # alternates between xs[s] and xs[1 - s]; c1 is read from cs[g], where the
    # last step's c4 is, and c4 written to cs[1 - g].  So the step is recorded
    # once and bound once per (s, g).
    widths, bind = record_rk4(rhs_fn(model), h)
    n = omegas.size
    xs, cs = [np.empty((2, n)) for _ in range(2)], [np.empty(n) for _ in range(2)]
    c2, scratch = np.empty(n), [np.empty((w, n)) for w in widths]
    progs = [
        [bind((xs[s], cs[g], c2, cs[1 - g]), xs[1 - s], scratch) for g in (0, 1)]
        for s in (0, 1)
    ]
    xs[0][0], xs[0][1] = float(cfg.s0.q), float(cfg.s0.p)
    x_save = np.empty((2, n))
    s = g = 0
    alive = np.ones(omegas.shape, dtype=bool)
    any_dead = False
    t_end = math.nan
    cos, multiply, isfinite = np.cos, np.multiply, np.isfinite

    def run(start, stop, checked):
        """Steps start..stop-1.  ``checked`` tests the lanes after every step
        and freezes the dead ones; returns False once every lane is dead."""
        nonlocal s, g, t_end, alive, any_dead
        for i in range(start, stop):
            t = t0 + i * h
            c1, c4 = cs[g], cs[1 - g]
            if t != t_end:
                cos(multiply(omegas, t, c1), c1)
            t_end = t + h
            cos(multiply(omegas, t_end, c4), c4)
            cos(multiply(omegas, t + 0.5 * h, c2), c2)
            for uf, a, b, out in progs[s][g]:
                uf(a, b, out)
            g = 1 - g
            if not checked:
                s = 1 - s
                continue
            qn, pn = xs[1 - s]
            ok = isfinite(qn) & isfinite(pn)
            if not any_dead and bool(ok.all()):
                s = 1 - s
                continue
            newly_dead = alive & ~ok
            if newly_dead.any():
                alive = alive & ok
                any_dead = True
                if not alive.any():
                    return False
            np.copyto(xs[s], xs[1 - s], where=alive)
        return True

    # While every lane is alive, blocks of _BLOCK steps run unchecked and the
    # lanes are tested once at the block's end.  That finds every lane that
    # went non-finite inside the block: each RK4 output is q + (h/6)*S (p
    # likewise), and an IEEE add with a non-finite operand is non-finite, so
    # a non-finite q or p stays non-finite at every later step.  A block that
    # ends with a non-finite lane is run again from its start, checked step by
    # step; from the first death on, every step is checked.  Rolling back
    # restores the state alone: either buffer parity serves, and cs[g] holds
    # cos(omegas*t_end), which the rerun reuses only where t equals t_end.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            if not any_dead:
                np.copyto(x_save, xs[s])
                run(start, stop, checked=False)
                if isfinite(xs[s]).all():
                    continue
                np.copyto(xs[s], x_save)
            if not run(start, stop, checked=True):
                break
    q, p = xs[s]

    if model.kind is ModelKind.ECOLOGY:
        offset0 = cfg.s0.p - model.beta * cfg.s0.q
        residuals = np.abs((p - model.beta * q) - offset0).tolist()
    else:
        residuals = [0.0] * omegas.size
    return [
        SweepRecord(
            omega=w, x_final=x, y_final=y, conservation_residual=r, diverged=not a
        )
        for w, x, y, r, a in zip(
            omegas.tolist(), q.tolist(), p.tolist(), residuals, alive.tolist()
        )
    ]


@dataclass(frozen=True)
class DynamicsPreset:
    """A single-trajectory case: model, initial state and run settings.

    ``paper_reported`` carries externally reported Lyapunov exponent values
    shipped for side-by-side comparison in CLI output; they are not targets
    this package reproduces or endorses.
    """

    case_id: str
    model: ModelSpec
    s0: State
    integration: IntegrationConfig
    lyapunov: LyapunovConfig
    paper_reported: tuple[float, float] | None = None


@dataclass(frozen=True)
class FdPreset:
    """A finite-difference recurrence case (see iterate_fd_duffing)."""

    case_id: str
    model: ModelSpec
    x0: float
    x1: float
    h: float
    n: int


_ORIGIN = State(0.0, 0.0, 0.0)
_LONG_RUN = IntegrationConfig(h=0.01, t0=0.0, t_max=10000.0, method=Method.RK4,
                              record_stride=100)
_CHAOS_RUN = IntegrationConfig(h=0.01, t0=0.0, t_max=800.0, method=Method.RK4)
_CHAOS_LYAP = LyapunovConfig(t_transient=100.0, t_total=800.0, h=0.01,
                             renorm_every=10)


def _bif_sweep(coupling_a, beta, alpha, omega_min, omega_max) -> SweepConfig:
    template = ModelSpec(
        kind=ModelKind.ECOLOGY,
        alpha=alpha,
        beta=beta,
        coupling_a=coupling_a,
        omega=omega_min,
    )
    return SweepConfig(
        model_template=template,
        omega_min=omega_min,
        omega_max=omega_max,
        n_samples=500,
        s0=_ORIGIN,
        t_max=10000.0,
        h=0.01,
    )


def _eco_dynamics(case_id, coupling_a, beta, omega, alpha, q0, p0) -> DynamicsPreset:
    return DynamicsPreset(
        case_id=case_id,
        model=ModelSpec(
            kind=ModelKind.ECOLOGY,
            alpha=alpha,
            beta=beta,
            omega=omega,
            coupling_a=coupling_a,
        ),
        s0=State(q0, p0, 0.0),
        integration=_LONG_RUN,
        lyapunov=_CHAOS_LYAP,
    )


def _quintic(case_id, gamma, paper_reported=None) -> DynamicsPreset:
    return DynamicsPreset(
        case_id=case_id,
        model=ModelSpec(
            kind=ModelKind.DUFFING_QUINTIC,
            delta=0.05,
            beta=0.3,
            gamma=gamma,
            omega=0.004,
        ),
        s0=_ORIGIN,
        integration=_CHAOS_RUN,
        lyapunov=_CHAOS_LYAP,
        paper_reported=paper_reported,
    )


_PRESETS = {
    "BIF_CASE_1": _bif_sweep(
        coupling_a=-0.095, beta=2.00056, alpha=-0.0000056,
        omega_min=0.000025, omega_max=0.003,
    ),
    "BIF_CASE_2": _bif_sweep(
        coupling_a=-0.000095, beta=-3.00056, alpha=-0.6,
        omega_min=0.0000237, omega_max=0.00281,
    ),
    "BIF_CASE_3": _bif_sweep(
        coupling_a=-0.000095, beta=-3.00056, alpha=-0.0006,
        omega_min=0.000000000000237, omega_max=0.0000000008,
    ),
    "ECO_DYN_1": _eco_dynamics(
        "ECO_DYN_1", coupling_a=0.2, beta=0.001, omega=0.06, alpha=-0.0005,
        q0=0.08, p0=0.07,
    ),
    "ECO_DYN_2": _eco_dynamics(
        "ECO_DYN_2", coupling_a=0.0004, beta=0.1, omega=0.01, alpha=0.005,
        q0=0.8, p0=0.9,
    ),
    "FD_PAPER": FdPreset(
        case_id="FD_PAPER",
        model=ModelSpec(
            kind=ModelKind.DUFFING_HOMOTOPY,
            delta=1.0,
            alpha=0.005,
            beta=0.02,
            gamma=-0.04,
            omega=0.001,
            lambda_h=0.1,
        ),
        x0=0.0,
        x1=0.0,
        h=0.01,
        n=10000,
    ),
    "CHAOS_A02": DynamicsPreset(
        case_id="CHAOS_A02",
        model=ModelSpec(
            kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2, omega=1.1
        ),
        s0=_ORIGIN,
        integration=_CHAOS_RUN,
        lyapunov=_CHAOS_LYAP,
        paper_reported=(0.503437, 0.551156),
    ),
    "QUINTIC_A00025": _quintic("QUINTIC_A00025", gamma=0.0025,
                               paper_reported=(11.1, 0.0)),
    "QUINTIC_A0002": _quintic("QUINTIC_A0002", gamma=0.2),
    "QUINTIC_A000025": _quintic("QUINTIC_A000025", gamma=0.00025),
}

PRESET_IDS = tuple(_PRESETS)


def preset(case_id: str):
    """Look up a named parameter set.

    Returns a fully populated SweepConfig for the BIF_CASE ids, a
    DynamicsPreset for the trajectory cases, and an FdPreset for FD_PAPER.

    Note on BIF_CASE_3: its frequencies are so small that omega*t stays
    below 1e-5 over the whole horizon, so cos(omega*t) is within 1e-10 of 1
    throughout; the sweep probes a near-constant-forcing regime.
    """
    try:
        return _PRESETS[case_id]
    except KeyError:
        raise ValueError(
            f"unknown preset {case_id!r}; known ids: {', '.join(PRESET_IDS)}"
        ) from None
