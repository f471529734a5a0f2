"""Error tables, the successive-error convergence rate, and Lyapunov-spectrum
estimation via tangent-space evolution with periodic re-orthonormalization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, State, forcing_omega, jac_fn, rhs_fn
from .integrators import step_count

__all__ = [
    "ErrorTable",
    "LyapunovConfig",
    "LyapunovResult",
    "error_table",
    "convergence_rate",
    "lyapunov_spectrum",
    "COMPARISON_FIXTURE",
]


@dataclass(frozen=True)
class ErrorTable:
    """Aligned reference/approximate samples with absolute errors."""

    times: np.ndarray
    reference: np.ndarray
    approximate: np.ndarray
    errors: np.ndarray


def error_table(times, reference, approximate) -> ErrorTable:
    """Tabulate |reference - approximate| over the sample times."""
    times = np.asarray(times, dtype=float)
    reference = np.asarray(reference, dtype=float)
    approximate = np.asarray(approximate, dtype=float)
    if not (times.shape == reference.shape == approximate.shape):
        raise ValueError("times, reference and approximate must have equal length")
    if times.ndim != 1 or times.size < 1:
        raise ValueError("inputs must be non-empty one-dimensional sequences")
    return ErrorTable(
        times=times,
        reference=reference,
        approximate=approximate,
        errors=np.abs(reference - approximate),
    )


def convergence_rate(errors, N: int) -> float | None:
    """Ratio errors[N] / errors[N+1] between successive tabulated errors.

    A ratio above 1 means the error is shrinking step to step.  Degenerate
    denominators use sentinels instead of infinities: 0/0 is defined equal
    (returns 1.0) and x/0 with x > 0 is undefined (returns None, which
    serializers report as such, never as a number).
    """
    errors = np.asarray(errors, dtype=float)
    if int(N) != N or not 0 <= N < errors.size - 1:
        raise ValueError(f"N must lie in [0, {errors.size - 2}], got {N}")
    e0, e1 = float(errors[N]), float(errors[N + 1])
    if e1 == 0.0:
        return 1.0 if e0 == 0.0 else None
    return e0 / e1


# Bundled analytical-vs-approximate displacement comparison; demo input for
# error_table / convergence_rate and the CLI `rates` command.
COMPARISON_FIXTURE = error_table(
    times=np.arange(21.0),
    reference=[0.0, 0.84, 0.54, 0.12, -0.36, -0.76, -1.08, -1.32, -1.48,
               -1.56, -1.56, -1.48, -1.32, -1.08, -0.76, -0.36, 0.12, 0.54,
               0.84, 1.0, 1.1],
    approximate=[0.0, 0.888, 0.572, 0.148, -0.34, -0.712, -1.028, -1.268,
                 -1.428, -1.548, -1.572, -1.496, -1.336, -1.084, -0.764,
                 -0.36, 0.12, 0.54, 0.84, 1.0, 1.1],
)


@dataclass(frozen=True)
class LyapunovConfig:
    """Tangent-evolution run description.

    ``t_transient`` is discarded before log-norm accumulation starts;
    ``renorm_every`` counts integration steps between Gram-Schmidt passes.
    """

    t_transient: float
    t_total: float
    h: float
    renorm_every: int = 10

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_transient, self.t_total, self.h))):
            raise ValueError("t_transient, t_total and h must be finite")
        if self.t_transient < 0:
            raise ValueError("t_transient must be nonnegative")
        if not self.t_total > self.t_transient:
            raise ValueError("t_total must exceed t_transient")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if (self.t_total - self.t_transient) / self.h < 100:
            raise ValueError("accumulation window must cover at least 100 steps")
        every = self.renorm_every
        if not math.isfinite(every) or int(every) != every or every < 1:
            raise ValueError("renorm_every must be a positive integer")


@dataclass(frozen=True)
class LyapunovResult:
    """Estimated exponents (descending) plus run diagnostics.

    ``sum_residual`` is the exponent sum minus the time-averaged Jacobian
    trace over the accumulation window; for a trustworthy run it should be
    near zero, since the two quantities agree for the exact flow.
    """

    exponents: tuple[float, float]
    sum_residual: float
    renorm_count: int
    t_transient: float
    diverged: bool = False


def lyapunov_spectrum(
    model: ModelSpec, s0: State, cfg: LyapunovConfig
) -> LyapunovResult:
    """Estimate both Lyapunov exponents of a two-dimensional flow.

    The state advances with RK4 while two tangent vectors advance with the
    linearized flow (the Jacobian evaluated along the same RK4 stages).
    Every ``renorm_every`` steps the tangent pair is Gram-Schmidt
    re-orthonormalized; the log norms collected after the transient, divided
    by the accumulation time, estimate the exponents.  Overflow aborts with
    whatever diagnostics accumulated, flagged as diverged.
    """
    f = rhs_fn(model)
    jac = jac_fn(model)
    h = cfg.h
    total_steps = int(step_count(0.0, cfg.t_total, h))
    transient_steps = int(step_count(0.0, cfg.t_transient, h))
    renorm_every = int(cfg.renorm_every)
    half_h = 0.5 * h
    sixth_h = h / 6.0

    q, p, t0 = s0.q, s0.p, s0.t
    cos, w = math.cos, forcing_omega(model)
    t_end = c4 = math.nan
    v11, v21 = 1.0, 0.0  # first tangent vector
    v12, v22 = 0.0, 1.0  # second tangent vector
    log1 = log2 = 0.0
    trace_sum = 0.0
    trace_n = 0
    renorm_count = 0
    prev_renorm = 0
    accum_first = None
    accum_last = 0
    diverged = False

    for i in range(1, total_steps + 1):
        t = t0 + (i - 1) * h

        try:
            c1 = c4 if t == t_end else cos(w * t)
            t_end = t + h
            c4 = cos(w * t_end)
            q, p, v11, v21, v12, v22, step_trace = _tangent_rk4_step(
                f, jac, q, p, c1, cos(w * (t + half_h)), c4,
                h, half_h, sixth_h, v11, v21, v12, v22,
            )
        except (OverflowError, ValueError):
            diverged = True
            break
        if i - 1 >= transient_steps:
            trace_sum += step_trace
            trace_n += 1

        if i % renorm_every == 0 or i == total_steps:
            r1 = math.sqrt(v11 * v11 + v21 * v21)
            if not (math.isfinite(q) and math.isfinite(p)) or not (
                0.0 < r1 < math.inf
            ):
                diverged = True
                break
            v11 /= r1
            v21 /= r1
            proj = v12 * v11 + v22 * v21
            v12 -= proj * v11
            v22 -= proj * v21
            r2 = math.sqrt(v12 * v12 + v22 * v22)
            if not 0.0 < r2 < math.inf:
                diverged = True
                break
            v12 /= r2
            v22 /= r2
            renorm_count += 1
            if prev_renorm >= transient_steps:
                log1 += math.log(r1)
                log2 += math.log(r2)
                if accum_first is None:
                    accum_first = prev_renorm
                accum_last = i
            prev_renorm = i

    if accum_first is not None and accum_last > accum_first:
        span = (accum_last - accum_first) * h
        lam_a, lam_b = log1 / span, log2 / span
    else:
        lam_a = lam_b = math.nan
    exponents = (max(lam_a, lam_b), min(lam_a, lam_b))
    trace_avg = trace_sum / trace_n if trace_n else math.nan
    return LyapunovResult(
        exponents=exponents,
        sum_residual=(lam_a + lam_b) - trace_avg,
        renorm_count=renorm_count,
        t_transient=cfg.t_transient,
        diverged=diverged,
    )


def _tangent_rk4_step(
    f, jac, q, p, cos1, cos2, cos4, h, half_h, sixth_h, v11, v21, v12, v22
):
    """One RK4 step of the state jointly with two tangent vectors.

    cos1, cos2 and cos4 are the forcing values at the stage times t,
    t + h/2 and t + h (a1..d4 name the Jacobian entries of each stage).
    Returns the advanced (q, p, v11, v21, v12, v22) plus the Jacobian trace
    at the step's starting state (for the divergence time average).
    """
    a1, b1, c1, d1 = jac(q, p)
    k1q, k1p = f(q, p, cos1)
    k1v11 = a1 * v11 + b1 * v21
    k1v21 = c1 * v11 + d1 * v21
    k1v12 = a1 * v12 + b1 * v22
    k1v22 = c1 * v12 + d1 * v22

    q2s, p2s = q + half_h * k1q, p + half_h * k1p
    a2, b2, c2, d2 = jac(q2s, p2s)
    k2q, k2p = f(q2s, p2s, cos2)
    u11, u21 = v11 + half_h * k1v11, v21 + half_h * k1v21
    u12, u22 = v12 + half_h * k1v12, v22 + half_h * k1v22
    k2v11 = a2 * u11 + b2 * u21
    k2v21 = c2 * u11 + d2 * u21
    k2v12 = a2 * u12 + b2 * u22
    k2v22 = c2 * u12 + d2 * u22

    q3s, p3s = q + half_h * k2q, p + half_h * k2p
    a3, b3, c3, d3 = jac(q3s, p3s)
    k3q, k3p = f(q3s, p3s, cos2)
    u11, u21 = v11 + half_h * k2v11, v21 + half_h * k2v21
    u12, u22 = v12 + half_h * k2v12, v22 + half_h * k2v22
    k3v11 = a3 * u11 + b3 * u21
    k3v21 = c3 * u11 + d3 * u21
    k3v12 = a3 * u12 + b3 * u22
    k3v22 = c3 * u12 + d3 * u22

    q4s, p4s = q + h * k3q, p + h * k3p
    a4, b4, c4, d4 = jac(q4s, p4s)
    k4q, k4p = f(q4s, p4s, cos4)
    u11, u21 = v11 + h * k3v11, v21 + h * k3v21
    u12, u22 = v12 + h * k3v12, v22 + h * k3v22
    k4v11 = a4 * u11 + b4 * u21
    k4v21 = c4 * u11 + d4 * u21
    k4v12 = a4 * u12 + b4 * u22
    k4v22 = c4 * u12 + d4 * u22

    return (
        q + sixth_h * (k1q + 2.0 * (k2q + k3q) + k4q),
        p + sixth_h * (k1p + 2.0 * (k2p + k3p) + k4p),
        v11 + sixth_h * (k1v11 + 2.0 * (k2v11 + k3v11) + k4v11),
        v21 + sixth_h * (k1v21 + 2.0 * (k2v21 + k3v21) + k4v21),
        v12 + sixth_h * (k1v12 + 2.0 * (k2v12 + k3v12) + k4v12),
        v22 + sixth_h * (k1v22 + 2.0 * (k2v22 + k3v22) + k4v22),
        a1 + d1,
    )
