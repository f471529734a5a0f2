import math
from fractions import Fraction

import numpy as np
import pytest

from duffinglab.approx import (
    DEFAULT_HOMOTOPY,
    HomotopyApprox,
    analytical_undamped,
    bessel_j0,
    error_bound,
    error_model,
    homotopy_approx,
    picard_solve,
)
from duffinglab.dynamics import ModelKind, ModelSpec, State
from duffinglab.integrators import IntegrationConfig, integrate

# q' = p, p' = q with equal initial components is the scalar growth system
# q' = q in disguise: both components stay equal, so the k-th Picard iterate
# of q is the degree-k Taylor polynomial of exp(t).
GROWTH = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.0, alpha=-1.0)


def j0_series_oracle(x: float, terms: int = 60) -> Fraction:
    """Independent exact-rational evaluation of the J0 power series."""
    xf = Fraction(x)
    z = xf * xf / 4
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, terms):
        term = -term * z / (k * k)
        total += term
    return total


def test_analytical_undamped_values():
    assert analytical_undamped(1.0, 0.0, 1.0, 0.0) == 1.0
    assert analytical_undamped(0.0, 1.0, 2.0, math.pi / 4) == pytest.approx(
        1.0, abs=1e-15
    )
    assert analytical_undamped(0.05, 0.0, 0.2, 5.0) == pytest.approx(
        0.05 * math.cos(1.0), abs=1e-15
    )
    assert 0.05 * math.cos(1.0) == pytest.approx(0.027015115, abs=1e-9)


def test_homotopy_approx_reference_instance_at_zero():
    assert homotopy_approx(DEFAULT_HOMOTOPY, 0.0) == pytest.approx(
        0.050000390625, abs=1e-15
    )


def test_homotopy_approx_zero_lambda_recovers_undamped_identically():
    cfg = HomotopyApprox(amplitude=0.05, omega=0.2, lambda_h=0.0,
                         correction_coeff=0.00015625)
    rng = np.random.default_rng(5)
    for t in rng.uniform(-50.0, 50.0, size=200):
        assert homotopy_approx(cfg, t) == analytical_undamped(0.05, 0.0, 0.2, t)


def test_homotopy_approx_vanishes_at_quarter_period():
    t = math.pi / (2 * DEFAULT_HOMOTOPY.omega)
    assert abs(homotopy_approx(DEFAULT_HOMOTOPY, t)) < 1e-16


def test_homotopy_approx_even_and_monotone_in_lambda():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lam = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, 5.0)  # omega*t < 1.57 keeps cos positive
        plus = homotopy_approx(
            HomotopyApprox(0.05, 0.2, lam, 0.00015625), t
        )
        base = homotopy_approx(HomotopyApprox(0.05, 0.2, 0.0, 0.00015625), t)
        assert plus >= base  # positive coefficient, cos > 0


def test_homotopy_approx_validates_lambda():
    with pytest.raises(ValueError):
        HomotopyApprox(0.05, 0.2, 1.1, 0.00015625)


@pytest.mark.parametrize("field", ["amplitude", "omega", "correction_coeff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_homotopy_approx_rejects_non_finite_fields(field, value):
    args = {"amplitude": 0.05, "omega": 0.2, "lambda_h": 0.05, "correction_coeff": 1e-4}
    args[field] = value
    with pytest.raises(ValueError, match=field):
        HomotopyApprox(**args)


def test_bessel_j0_at_zero_is_exactly_one():
    assert bessel_j0(0.0) == 1.0


def test_bessel_j0_at_one_against_rational_oracle():
    oracle = float(j0_series_oracle(1.0))
    assert oracle == pytest.approx(0.7651976865579666, abs=1e-15)
    assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-12)


def test_bessel_j0_first_zero():
    z0 = 2.404825557695773
    # the oracle brackets a sign change in a tight interval around z0
    assert j0_series_oracle(z0 - 1e-8) * j0_series_oracle(z0 + 1e-8) < 0
    assert abs(bessel_j0(z0)) <= 1e-10


def test_bessel_j0_bounded_and_even():
    rng = np.random.default_rng(17)
    for x in rng.uniform(-10.0, 10.0, size=300):
        v = bessel_j0(float(x))
        assert abs(v) <= 1.0
        assert abs(v - bessel_j0(float(-x))) <= 1e-15


def test_bessel_j0_domain_limit():
    bessel_j0(50.0)
    with pytest.raises(ValueError):
        bessel_j0(50.1)
    with pytest.raises(ValueError):
        bessel_j0(math.nan)


def test_error_model_values_and_bound():
    assert error_model(0.3, 0.0) == 0.3
    assert error_model(0.05, 1.0) == pytest.approx(0.038259884, abs=1e-9)
    rng = np.random.default_rng(23)
    for _ in range(200):
        A = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(0.0, 1.0)
        assert abs(error_model(A, lam)) <= error_bound(A)
    with pytest.raises(ValueError):
        error_model(1.0, 1.5)


def test_error_bound_trivial_values():
    assert error_bound(0.0) == 0.0
    assert error_bound(-0.05) == 0.05
    assert error_bound(0.048) == 0.048


def test_picard_zero_iterations_is_constant_guess():
    m = ModelSpec(kind=ModelKind.DUFFING_CLASSIC, alpha=1.0, gamma=0.3, omega=1.0)
    grid = np.linspace(0.0, 1.0, 11)
    traj = picard_solve(m, State(0.4, -0.2, 0.0), grid, k=0)
    assert all(s.q == 0.4 and s.p == -0.2 for s in traj.samples)
    assert [s.t for s in traj.samples] == list(grid)


def test_picard_three_iterations_match_truncated_taylor():
    grid = np.arange(0.0, 0.5 + 1e-3 / 2, 1e-3)
    traj = picard_solve(GROWTH, State(1.0, 1.0, 0.0), grid, k=3)
    taylor = 1.0 + 0.5 + 0.5**2 / 2 + 0.5**3 / 6
    assert taylor == pytest.approx(1.6458333, abs=5e-8)
    assert abs(traj.samples[-1].q - 1.6458333) <= 5e-4


def test_picard_iterate_distances_decrease_monotonically():
    grid = np.arange(0.0, 0.5 + 1e-3 / 2, 1e-3)
    iterates = [
        picard_solve(GROWTH, State(1.0, 1.0, 0.0), grid, k=k).q
        for k in range(7)
    ]
    dists = [
        np.max(np.abs(iterates[k] - iterates[k - 1])) for k in range(1, 7)
    ]
    assert all(d0 > d1 for d0, d1 in zip(dists, dists[1:]))


def test_picard_agrees_with_rk4_on_short_horizon():
    m = ModelSpec(
        kind=ModelKind.DUFFING_CLASSIC, delta=0.2, alpha=1.0, beta=1.0,
        gamma=0.3, omega=1.2,
    )
    s0 = State(0.1, 0.0, 0.0)
    h = 1e-3
    grid = np.arange(0.0, 1.0 + h / 2, h)
    picard = picard_solve(m, s0, grid, k=12)
    rk4 = integrate(m, s0, IntegrationConfig(h=h, t0=0.0, t_max=1.0))
    dq = np.max(np.abs(picard.q - rk4.q))
    assert dq <= 1e-3


def test_picard_flags_divergent_runs():
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.0, alpha=-1e10)
    grid = np.linspace(0.0, 50.0, 501)
    traj = picard_solve(m, State(1.0, 1.0, 0.0), grid, k=80)
    assert traj.diverged
    assert all(math.isfinite(s.q) for s in traj.samples)


def test_picard_validates_grid():
    m = GROWTH
    with pytest.raises(ValueError):
        picard_solve(m, State(1.0, 1.0, 0.0), [0.5, 1.0], k=1)  # wrong start
    with pytest.raises(ValueError):
        picard_solve(m, State(1.0, 1.0, 0.0), [0.0, 0.0, 1.0], k=1)
    with pytest.raises(ValueError):
        picard_solve(m, State(1.0, 1.0, 0.0), [0.0, 1.0], k=-1)
