"""Workload definitions: a seed becomes a list of ``duffing-lab`` jobs.

Every job is plain argv for ``duffinglab.cli.main`` plus what the checks need
to know about the expected output.  Seeds move initial states, omega windows
and series coefficients; they never move a horizon, a step, a lane count or a
row count, so two seeds cost the same work (see ``Job.work``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "sweep_wide", "trajectory")

# Values of the presets in duffinglab.bifurcation that the checks need (the
# CSV documents do not carry their config).
_BIF = {
    "BIF_CASE_1": {"beta": 2.00056, "omega": (0.000025, 0.003)},
    "BIF_CASE_2": {"beta": -3.00056, "omega": (0.0000237, 0.00281)},
    "BIF_CASE_3": {"beta": -3.00056, "omega": (0.000000000000237, 0.0000000008)},
}
_SWEEP_H = 0.01
_SWEEP_LANES = 500
_SWEEP_T = 100.0  # preset horizon is 1e4; see README "Horizon"
_WIDE_LANES = 4000
_WIDE_JOBS = 3
_WIDE_T = 12.5  # 3 jobs x 4000 lanes x 1250 steps = the 1.5e7 lane-steps of `sweep`
_ECO_DYN_1_BETA = 0.001
_CHAOS_DELTA = 0.05
_QUINTIC_DELTA = 0.05
_FD_PAPER = {"h": 0.01, "lambda_h": 0.1, "alpha": 0.005, "beta": 0.02,
             "gamma": -0.04, "omega": 0.001}


@dataclass(frozen=True)
class Job:
    """One ``duffing-lab`` invocation and what its document must satisfy.

    ``argv`` excludes ``--out``, which the runner appends.  ``command`` groups
    jobs for the per-command report.  ``expect`` holds the check parameters,
    ``work`` the planned work counts (lane-steps, steps, rows, renorms).
    """

    name: str
    command: str
    argv: tuple[str, ...]
    fmt: str
    expect: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)


def _num(x: float) -> str:
    """Exact decimal text for a float (repr round-trips)."""
    return repr(float(x))


def _steps(t0: float, t_max: float, h: float) -> int:
    """Step count exactly as the program derives it."""
    return int(math.floor((t_max - t0) / h + 0.5))


def _bifurcate(rng: random.Random, case: str, lanes: int, t_max: float, tag: str = "") -> Job:
    lo, hi = _BIF[case]["omega"]
    span = hi - lo
    w_min = lo + 0.25 * span * rng.random()
    w_max = hi - 0.25 * span * rng.random()
    q0 = rng.uniform(-0.5, 0.5)
    p0 = rng.uniform(-0.5, 0.5)
    argv = (
        "bifurcate", "--preset", case,
        "--samples", str(lanes),
        "--t-max", _num(t_max),
        "--omega-min", _num(w_min), "--omega-max", _num(w_max),
        "--set", f"s0.q={_num(q0)}", "--set", f"s0.p={_num(p0)}",
    )
    steps = _steps(0.0, t_max, _SWEEP_H)
    return Job(
        name=f"bifurcate-{case}-{lanes}{tag}",
        command="bifurcate",
        argv=argv,
        fmt="csv",
        expect={
            "kind": "sweep", "rows": lanes, "omega_min": w_min,
            "omega_max": w_max, "beta": _BIF[case]["beta"], "q0": q0, "p0": p0,
        },
        work={"lanes": lanes, "lane_steps": lanes * steps, "rows": lanes},
    )


def _simulate(name, preset, t_max, h, stride, fmt, q0, p0, expect) -> Job:
    argv = (
        "simulate", "--preset", preset, "--t-max", _num(t_max),
        "--set", f"s0.q={_num(q0)}", "--set", f"s0.p={_num(p0)}",
        "--format", fmt,
    )
    steps = _steps(0.0, t_max, h)
    rows = steps // stride + 1 + (1 if steps % stride else 0)
    return Job(
        name=name, command="simulate", argv=argv, fmt=fmt,
        expect={"kind": "trajectory", "rows": rows, "h": h, "stride": stride,
                "steps": steps, "q0": q0, "p0": p0, **expect},
        work={"steps": steps, "rows": rows},
    )


def _lyapunov(name, preset, delta, scale, q0, p0) -> Job:
    h, every = 0.01, 10
    t_total, t_transient = 400.0 * scale, 50.0 * scale
    argv = (
        "lyapunov", "--preset", preset,
        "--set", f"lyapunov.t_total={_num(t_total)}",
        "--set", f"lyapunov.t_transient={_num(t_transient)}",
        "--set", f"s0.q={_num(q0)}", "--set", f"s0.p={_num(p0)}",
    )
    steps = _steps(0.0, t_total, h)
    renorms = -(-steps // every)
    return Job(
        name=name, command="lyapunov", argv=argv, fmt="csv",
        expect={"kind": "lyapunov", "rows": 1, "delta": delta, "renorms": renorms},
        work={"steps": steps, "renorm_count": renorms, "rows": 1},
    )


def _grid_job(command, name, t_max, h, q0, p0) -> Job:
    n = _steps(0.0, t_max, h)
    argv = (
        command, "--preset", "CHAOS_A02", "--t-max", _num(t_max), "--h", _num(h),
        "--set", f"s0.q={_num(q0)}", "--set", f"s0.p={_num(p0)}",
    )
    return Job(
        name=name, command=command, argv=argv, fmt="csv",
        expect={"kind": command, "rows": n + 1, "h": h, "q0": q0, "p0": p0},
        work={"rows": n + 1},
    )


def _trajectory_jobs(rng: random.Random, scale: float) -> list[Job]:
    jobs = [
        _simulate(
            "simulate-ECO_DYN_1", "ECO_DYN_1", 4000.0 * scale, 0.01, 100, "csv",
            rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2),
            {"beta": _ECO_DYN_1_BETA},
        ),
    ]
    q0, p0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    for fmt in ("csv", "json"):
        jobs.append(
            _simulate(f"simulate-CHAOS_A02-{fmt}", "CHAOS_A02", 300.0 * scale,
                      0.01, 1, fmt, q0, p0, {})
        )
    jobs.append(_lyapunov("lyapunov-CHAOS_A02", "CHAOS_A02", _CHAOS_DELTA, scale,
                          rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
    jobs.append(_lyapunov("lyapunov-QUINTIC_A0002", "QUINTIC_A0002",
                          _QUINTIC_DELTA, scale,
                          rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))

    n_fd = max(2, int(100000 * scale))
    x0, x1 = rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)
    jobs.append(Job(
        name="fd-FD_PAPER", command="fd",
        argv=("fd", "--preset", "FD_PAPER", "--set", f"fd.n={n_fd}",
              "--set", f"fd.x0={_num(x0)}", "--set", f"fd.x1={_num(x1)}"),
        fmt="csv",
        expect={"kind": "fd", "rows": n_fd + 1, "x0": x0, "x1": x1, **_FD_PAPER},
        work={"steps": n_fd - 1, "rows": n_fd + 1},
    ))

    # Picard diverges on long horizons; t <= 5 on a fine grid stays finite.
    jobs.append(_grid_job("picard", "picard-CHAOS_A02", 0.5 * scale, 1e-5,
                          rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
    jobs.append(_grid_job("compare", "compare-CHAOS_A02", 0.5 * scale, 2e-5,
                          rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))

    t_h, h_h = 500.0 * scale, 0.01
    n_h = _steps(0.0, t_h, h_h)
    amp, w, lam = rng.uniform(0.02, 0.08), rng.uniform(0.1, 0.3), rng.uniform(0.0, 0.1)
    jobs.append(Job(
        name="homotopy", command="homotopy",
        argv=("homotopy", "--t-max", _num(t_h), "--h", _num(h_h),
              "--set", f"homotopy.amplitude={_num(amp)}",
              "--set", f"homotopy.omega={_num(w)}",
              "--set", f"homotopy.lambda_h={_num(lam)}"),
        fmt="csv",
        expect={"kind": "homotopy", "rows": n_h + 1, "h": h_h},
        work={"rows": n_h + 1},
    ))
    return jobs


def make_jobs(workload: str, seed: int, scale: float = 1.0, full: bool = False) -> list[Job]:
    """The job list of one pass of ``workload``, drawn from ``seed``.

    ``scale`` multiplies every horizon and row count (the sweep lane counts
    stay); ``full`` replaces ``sweep`` with one ``BIF_CASE_1`` job at the
    preset's 1e4 horizon.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if not scale > 0:
        raise ValueError("scale must be positive")
    rng = random.Random(f"{workload}:{seed}")
    if full:
        if workload != "sweep":
            raise ValueError("--full applies to the sweep workload only")
        return [_bifurcate(rng, "BIF_CASE_1", _SWEEP_LANES, 10000.0)]
    if workload == "sweep":
        return [_bifurcate(rng, case, _SWEEP_LANES, _SWEEP_T * scale) for case in _BIF]
    if workload == "sweep_wide":
        # Three shorter jobs rather than one: three times the samples per run
        # for the per-job medians, each bracketed by its own calibrations.
        return [_bifurcate(rng, "BIF_CASE_1", _WIDE_LANES, _WIDE_T * scale, f"-{i}")
                for i in range(_WIDE_JOBS)]
    return _trajectory_jobs(rng, scale)
