"""ECOLOGY against its own reduction to one scalar equation.

dp/dt is beta times dq/dt, so p - beta*q stays at its initial value c0 and
the flow is exactly the scalar equation

    dq/dt = -A*(beta*q + c0) - cos(omega*t) - q^3 + alpha*q^5.

The reference below integrates that equation with its own RK4 at h/8, so it
shares no code with the package; the package's two-variable RK4 at h must
then agree with it to a constant times h^4.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from duffinglab.bifurcation import preset, sweep_omega
from duffinglab.integrators import IntegrationConfig, integrate

T = 20.0
STEPS = (0.2, 0.1, 0.05)
# the measured error over [0, 20] is at most 0.09 h^4 for these cases
C = 0.5


def reduced_q(coupling_a, beta, alpha, omega, q0, p0, h, n):
    """q at t = i*h, i = 0..n, from RK4 on the reduced equation at h/8."""
    c0 = p0 - beta * q0

    def f(t, q):
        return -coupling_a * (beta * q + c0) - math.cos(omega * t) - q**3 + alpha * q**5

    hs = h / 8
    q, out = q0, [q0]
    for i in range(8 * n):
        t = i * hs
        k1 = f(t, q)
        k2 = f(t + hs / 2, q + hs / 2 * k1)
        k3 = f(t + hs / 2, q + hs / 2 * k2)
        k4 = f(t + hs, q + hs * k3)
        q += hs / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (i + 1) % 8 == 0:
            out.append(q)
    return np.array(out)


@pytest.mark.parametrize("h", STEPS)
@pytest.mark.parametrize("case_id", ["ECO_DYN_1", "ECO_DYN_2"])
def test_integrate_matches_the_reduced_equation(case_id, h):
    pr = preset(case_id)
    m, s0 = pr.model, pr.s0
    n = round(T / h)
    traj = integrate(m, s0, IntegrationConfig(h=h, t0=0.0, t_max=T))
    q = reduced_q(m.coupling_a, m.beta, m.alpha, m.omega, s0.q, s0.p, h, n)
    p = m.beta * q + (s0.p - m.beta * s0.q)
    assert traj.t.size == n + 1 and not traj.diverged
    assert np.max(np.abs(traj.q - q)) <= C * h**4
    assert np.max(np.abs(traj.p - p)) <= C * max(1.0, abs(m.beta)) * h**4


@pytest.mark.parametrize("h", STEPS)
@pytest.mark.parametrize("case_id", ["BIF_CASE_1", "BIF_CASE_2"])
def test_sweep_lanes_match_the_reduced_equation(case_id, h):
    # a wider omega window than the presets', so the forcing varies over [0, T]
    cfg = replace(preset(case_id), n_samples=4, omega_min=0.05, omega_max=1.0,
                  t_max=T, h=h)
    m, s0 = cfg.model_template, cfg.s0
    n = round(T / h)
    for r in sweep_omega(cfg):
        q = reduced_q(m.coupling_a, m.beta, m.alpha, r.omega, s0.q, s0.p, h, n)[-1]
        p = m.beta * q + (s0.p - m.beta * s0.q)
        assert not r.diverged
        assert abs(r.x_final - q) <= C * h**4
        assert abs(r.y_final - p) <= C * max(1.0, abs(m.beta)) * h**4
