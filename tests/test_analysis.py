import math

import numpy as np
import pytest

from duffinglab import analysis
from duffinglab.analysis import (
    COMPARISON_FIXTURE,
    LyapunovConfig,
    convergence_rate,
    error_table,
    lyapunov_spectrum,
)
from duffinglab.bifurcation import preset
from duffinglab.dynamics import ModelKind, ModelSpec, State
from duffinglab.integrators import IntegrationConfig, integrate


def test_error_table_absolute_differences():
    tab = error_table([1.0, 15.0], [0.84, -0.36], [0.888, -0.36])
    assert tab.errors[0] == pytest.approx(0.048, abs=1e-15)
    assert tab.errors[1] == 0.0


def test_error_table_identical_columns_give_zero():
    tab = error_table([0, 1, 2], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.all(tab.errors == 0.0)


def test_error_table_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        error_table([0, 1], [1.0], [1.0, 2.0])


def test_error_table_reversal_reverses_errors():
    rng = np.random.default_rng(31)
    t = np.sort(rng.uniform(0, 10, size=12))
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    fwd = error_table(t, a, b).errors
    rev = error_table(t[::-1], a[::-1], b[::-1]).errors
    assert np.array_equal(fwd[::-1], rev)


def test_convergence_rates_of_bundled_comparison():
    errs = COMPARISON_FIXTURE.errors
    assert convergence_rate(errs, 1) == pytest.approx(1.5, abs=1e-12)
    assert convergence_rate(errs, 6) == pytest.approx(1.0, abs=1e-12)
    # the 0.012/0.016 pairing sits at N=10; N=9 pairs the two equal 0.012s
    assert convergence_rate(errs, 10) == pytest.approx(0.75, abs=1e-12)
    assert convergence_rate(errs, 9) == pytest.approx(1.0, abs=1e-12)


def test_convergence_rate_geometric_sequence():
    r = 0.7
    errs = 3.0 * r ** np.arange(12)
    for n in range(11):
        assert convergence_rate(errs, n) == pytest.approx(1.0 / r, abs=1e-12)


def test_convergence_rate_sentinels():
    assert convergence_rate([0.0, 0.0], 0) == 1.0
    assert convergence_rate([0.5, 0.0], 0) is None


def test_convergence_rate_index_validation():
    with pytest.raises(ValueError):
        convergence_rate([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        convergence_rate([1.0, 2.0], -1)


def test_lyapunov_config_validation():
    with pytest.raises(ValueError):
        LyapunovConfig(t_transient=-1.0, t_total=10.0, h=0.01)
    with pytest.raises(ValueError):
        LyapunovConfig(t_transient=10.0, t_total=10.0, h=0.01)
    with pytest.raises(ValueError):
        LyapunovConfig(t_transient=0.0, t_total=0.5, h=0.01)
    with pytest.raises(ValueError):
        LyapunovConfig(t_transient=0.0, t_total=10.0, h=0.01, renorm_every=0)


def test_lyapunov_undamped_oscillator_has_zero_exponents():
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.0, alpha=1.0)
    res = lyapunov_spectrum(
        m, State(1.0, 0.0, 0.0), LyapunovConfig(0.0, 2000.0, 0.01, 10)
    )
    assert abs(res.exponents[0]) <= 0.005
    assert abs(res.exponents[1]) <= 0.005


def test_lyapunov_damped_oscillator_matches_eigenvalue_real_part():
    # eigenvalues -0.05 +- i*omega' for delta=0.1, alpha=1
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.1, alpha=1.0)
    res = lyapunov_spectrum(
        m, State(1.0, 0.0, 0.0), LyapunovConfig(0.0, 2000.0, 0.01, 10)
    )
    for lam in res.exponents:
        assert -0.055 <= lam <= -0.045
    assert res.exponents[0] >= res.exponents[1]
    assert res.renorm_count >= 1


def test_lyapunov_chaos_preset_sum_and_positivity():
    pr = preset("CHAOS_A02")
    res = lyapunov_spectrum(pr.model, pr.s0, pr.lyapunov)
    assert abs(sum(res.exponents) + 0.05) <= 0.01
    assert res.exponents[0] > 0.0
    assert abs(res.sum_residual) <= 0.01
    assert not res.diverged


def test_lyapunov_chaos_stable_under_renorm_doubling():
    pr = preset("CHAOS_A02")
    res10 = lyapunov_spectrum(pr.model, pr.s0, pr.lyapunov)
    cfg20 = LyapunovConfig(
        t_transient=pr.lyapunov.t_transient,
        t_total=pr.lyapunov.t_total,
        h=pr.lyapunov.h,
        renorm_every=20,
    )
    res20 = lyapunov_spectrum(pr.model, pr.s0, cfg20)
    assert abs(res10.exponents[0] - res20.exponents[0]) <= 0.01
    assert abs(res10.exponents[1] - res20.exponents[1]) <= 0.01


def test_chaos_positivity_confirmed_by_two_trajectated_divergence():
    # independent check: two nearby trajectories separate exponentially
    pr = preset("CHAOS_A02")
    cfg = IntegrationConfig(h=0.01, t0=0.0, t_max=100.0, record_stride=100)
    a = integrate(pr.model, State(0.0, 0.0, 0.0), cfg)
    b = integrate(pr.model, State(1e-8, 0.0, 0.0), cfg)
    sep0 = 1e-8
    sep_end = math.hypot(
        a.samples[-1].q - b.samples[-1].q, a.samples[-1].p - b.samples[-1].p
    )
    assert sep_end > 1e3 * sep0


def test_lyapunov_quintic_preset_respects_trace_constraint():
    pr = preset("QUINTIC_A00025")
    res = lyapunov_spectrum(pr.model, pr.s0, pr.lyapunov)
    assert abs(sum(res.exponents) + 0.05) <= 0.01
    assert abs(res.sum_residual) <= 0.01


def test_lyapunov_classic_duffing_respects_trace_constraint():
    m = ModelSpec(kind=ModelKind.DUFFING_CLASSIC, delta=0.25, alpha=-1.0,
                  beta=1.0, gamma=0.3, omega=1.0)
    res = lyapunov_spectrum(
        m, State(0.1, 0.0, 0.0), LyapunovConfig(50.0, 500.0, 0.01, 10)
    )
    assert abs(sum(res.exponents) + 0.25) <= 0.01
    assert abs(res.sum_residual) <= 0.01


def test_lyapunov_overflow_aborts_with_partial_diagnostics():
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.0, alpha=-1e8)
    res = lyapunov_spectrum(
        m, State(1.0, 1.0, 0.0), LyapunovConfig(0.0, 10.0, 0.01, 10)
    )
    assert res.diverged
    assert res.renorm_count >= 0


def test_lyapunov_steps_get_textbook_forcing_values(monkeypatch):
    # every tangent step must see cos(omega*t) at its own three stage times,
    # whether or not the forcing was carried over from the previous step
    seen = []
    real_step = analysis._tangent_rk4_step

    def recording_step(f, jac, q, p, cos1, cos2, cos4, *rest):
        seen.append((cos1, cos2, cos4))
        return real_step(f, jac, q, p, cos1, cos2, cos4, *rest)

    monkeypatch.setattr(analysis, "_tangent_rk4_step", recording_step)
    m = ModelSpec(kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2, omega=1.1)
    t0, h = 0.37, 0.013
    res = lyapunov_spectrum(m, State(0.1, 0.0, t0), LyapunovConfig(0.0, 200 * h, h))
    assert not res.diverged and len(seen) == 200
    starts = [t0 + i * h for i in range(200)]
    reuse = [b == a + h for a, b in zip(starts, starts[1:])]
    assert any(reuse) and not all(reuse)
    w = m.omega
    assert seen == [
        (math.cos(w * t), math.cos(w * (t + 0.5 * h)), math.cos(w * (t + h)))
        for t in starts
    ]


def _ecology_cases():
    for case_id in ("ECO_DYN_1", "ECO_DYN_2"):
        pr = preset(case_id)
        yield pytest.param(pr.model, pr.s0, id=case_id)
    # seeded random specs over ranges where every run stays finite
    rng = np.random.default_rng(7)
    for i in range(6):
        a, b, al, w, q0, p0 = rng.uniform(
            [1e-4, -0.2, -1e-3, 0.005, -0.9, -0.9], [0.3, 0.2, 5e-3, 0.1, 0.9, 0.9]
        ).tolist()
        m = ModelSpec(kind=ModelKind.ECOLOGY, coupling_a=a, beta=b, alpha=al, omega=w)
        yield pytest.param(m, State(q0, p0, 0.0), id=f"random-{i}")


@pytest.mark.parametrize("m, s0", _ecology_cases())
def test_lyapunov_ecology_spectrum_is_zero_and_mean_trace(m, s0):
    # (-beta, 1) is a left null vector of every ECOLOGY Jacobian, so one
    # exponent is exactly 0 and the other is the time-averaged trace
    # -3q^2 + 5*alpha*q^4 - beta*A, taken here over the post-transient step
    # starts of an integrate run at the same h
    cfg = preset("ECO_DYN_1").lyapunov  # both ECOLOGY presets use this one
    res = lyapunov_spectrum(m, s0, cfg)
    n = int(math.floor(cfg.t_total / cfg.h + 0.5))
    transient = int(math.floor(cfg.t_transient / cfg.h + 0.5))
    run = IntegrationConfig(h=cfg.h, t0=s0.t, t_max=cfg.t_total)
    assert run.n_steps == n
    q = integrate(m, s0, run).q[transient:n]
    q2 = q * q
    trace = -3.0 * q2 + 5.0 * m.alpha * q2 * q2 - m.beta * m.coupling_a
    mean_trace = float(np.mean(trace))
    assert not res.diverged
    assert abs(res.exponents[0]) <= 1e-4
    assert abs(res.exponents[1] - mean_trace) <= 1e-4
