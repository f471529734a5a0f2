from dataclasses import fields

import numpy as np
import pytest

from duffinglab.dynamics import (
    MODEL_FIELDS,
    FlaggedOverflow,
    ModelKind,
    ModelSpec,
    State,
    Trajectory,
    conserved_offset,
    forcing_omega,
    jac_fn,
    jacobian,
    rhs,
    rhs_fn,
)


def central_difference_jacobian(model, s):
    """Independent oracle: central differences of rhs with scaled steps."""
    out = np.empty((2, 2))
    eps_q = 1e-6 * max(1.0, abs(s.q))
    eps_p = 1e-6 * max(1.0, abs(s.p))
    fqp = rhs(model, State(s.q + eps_q, s.p, s.t))
    fqm = rhs(model, State(s.q - eps_q, s.p, s.t))
    fpp = rhs(model, State(s.q, s.p + eps_p, s.t))
    fpm = rhs(model, State(s.q, s.p - eps_p, s.t))
    out[0, 0] = (fqp[0] - fqm[0]) / (2 * eps_q)
    out[1, 0] = (fqp[1] - fqm[1]) / (2 * eps_q)
    out[0, 1] = (fpp[0] - fpm[0]) / (2 * eps_p)
    out[1, 1] = (fpp[1] - fpm[1]) / (2 * eps_p)
    return out


def random_models(rng, n=8):
    for _ in range(n):
        d, a, b, g, w, ac = rng.uniform(-1.5, 1.5, size=6)
        lam = rng.uniform(0.0, 1.0)
        for kind in ModelKind:
            yield ModelSpec(
                kind=kind, delta=abs(d), alpha=a, beta=b, gamma=g,
                omega=abs(w) + 0.1, lambda_h=lam, coupling_a=ac,
            )


def test_chaos_rhs_at_origin_keeps_only_forcing():
    m = ModelSpec(kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2, omega=1.1)
    assert rhs(m, State(0.0, 0.0, 0.0)) == (0.0, 0.2)


def test_ecology_rhs_at_origin():
    m = ModelSpec(
        kind=ModelKind.ECOLOGY, coupling_a=-0.095, beta=2.00056, alpha=-0.0000056
    )
    dq, dp = rhs(m, State(0.0, 0.0, 0.0))
    assert dq == -1.0
    assert dp == -2.00056


def test_homotopy_lambda_zero_freezes_velocity():
    m = ModelSpec(
        kind=ModelKind.DUFFING_HOMOTOPY, delta=0.3, alpha=1.0, beta=0.5,
        gamma=0.2, omega=1.0, lambda_h=0.0,
    )
    rng = np.random.default_rng(7)
    for _ in range(20):
        q, p, t = rng.uniform(-2, 2, size=3)
        assert rhs(m, State(q, p, t)) == (p, 0.0)


def test_homotopy_lambda_one_matches_classic_exactly():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d, a, b, g, w = rng.uniform(-1, 1, size=5)
        hom = ModelSpec(
            kind=ModelKind.DUFFING_HOMOTOPY, delta=d, alpha=a, beta=b,
            gamma=g, omega=w, lambda_h=1.0,
        )
        cla = ModelSpec(
            kind=ModelKind.DUFFING_CLASSIC, delta=d, alpha=a, beta=b,
            gamma=g, omega=w,
        )
        q, p, t = rng.uniform(-3, 3, size=3)
        assert rhs(hom, State(q, p, t)) == rhs(cla, State(q, p, t))


def test_jacobian_chaos_entries_at_q_zero():
    m = ModelSpec(kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2, omega=1.1)
    J = jacobian(m, State(0.0, 0.3, 1.0))
    assert J[1, 0] == 1.0
    assert J[1, 1] == -0.05


def test_jacobian_linear_is_state_independent():
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.1, alpha=1.0)
    expected = np.array([[0.0, 1.0], [-1.0, -0.1]])
    for s in (State(0, 0, 0), State(2.5, -1.0, 3.0)):
        assert np.array_equal(jacobian(m, s), expected)


def test_jacobian_quintic_hand_value():
    # d(dp)/dq at q=1: 1 + 3*0.3 - 5*0.0025 = 1.8875
    m = ModelSpec(
        kind=ModelKind.DUFFING_QUINTIC, delta=0.05, beta=0.3, gamma=0.0025,
        omega=0.004,
    )
    s = State(1.0, 0.2, 0.0)
    J = jacobian(m, s)
    assert J[1, 0] == pytest.approx(1.8875, abs=1e-15)
    fd = central_difference_jacobian(m, s)
    assert J[1, 0] == pytest.approx(fd[1, 0], rel=1e-6)


def test_jacobian_matches_central_differences_all_kinds():
    rng = np.random.default_rng(42)
    for model in random_models(rng):
        q, p, t = rng.uniform(-2, 2, size=3)
        s = State(q, p, t)
        J = jacobian(model, s)
        fd = central_difference_jacobian(model, s)
        assert np.all(np.abs(J - fd) <= 1e-6 * (1.0 + np.abs(J)))


def test_jacobian_trace_is_minus_delta_for_duffing_kinds():
    rng = np.random.default_rng(3)
    kinds = (
        ModelKind.DUFFING_CLASSIC,
        ModelKind.DUFFING_CHAOS,
        ModelKind.DUFFING_QUINTIC,
    )
    for kind in kinds:
        m = ModelSpec(kind=kind, delta=0.37, alpha=1.2, beta=0.4, gamma=0.9,
                      omega=1.3)
        for _ in range(10):
            q, p, t = rng.uniform(-3, 3, size=3)
            J = jacobian(m, State(q, p, t))
            assert J[0, 0] + J[1, 1] == pytest.approx(-0.37, abs=1e-15)


def test_conserved_offset_values():
    m0 = ModelSpec(kind=ModelKind.ECOLOGY, beta=2.00056)
    assert conserved_offset(m0, State(0.0, 0.0, 0.0)) == 0.0
    m1 = ModelSpec(kind=ModelKind.ECOLOGY, beta=0.001)
    assert conserved_offset(m1, State(0.08, 0.07, 0.0)) == pytest.approx(
        0.06992, abs=1e-15
    )
    m2 = ModelSpec(kind=ModelKind.ECOLOGY, beta=0.1)
    assert conserved_offset(m2, State(0.8, 0.9, 0.0)) == pytest.approx(
        0.82, abs=1e-15
    )


def test_conserved_offset_rejects_other_kinds():
    m = ModelSpec(kind=ModelKind.DUFFING_CLASSIC, beta=1.0)
    with pytest.raises(ValueError):
        conserved_offset(m, State(0.0, 0.0, 0.0))


def test_lambda_h_validated_only_where_read():
    with pytest.raises(ValueError):
        ModelSpec(kind=ModelKind.DUFFING_HOMOTOPY, lambda_h=1.5)
    # unread fields are ignored, never rejected
    m = ModelSpec(kind=ModelKind.DUFFING_CLASSIC, lambda_h=7.0, coupling_a=1e9)
    assert rhs(m, State(0.0, 0.0, 0.0)) == (0.0, 0.0)


def test_rhs_overflow_is_flagged_with_state():
    m = ModelSpec(kind=ModelKind.DUFFING_QUINTIC, delta=0.05, beta=0.3,
                  gamma=0.0025, omega=0.004)
    bad = State(1e100, 0.0, 0.0)
    with pytest.raises(FlaggedOverflow) as exc:
        rhs(m, bad)
    assert exc.value.state == bad


def test_trajectory_requires_increasing_times():
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, alpha=1.0)
    with pytest.raises(ValueError):
        Trajectory(t=[], q=[], p=[], model=m)
    with pytest.raises(ValueError):
        Trajectory(t=[0.0, 0.0], q=[0, 1], p=[0, 1], model=m)
    traj = Trajectory(t=[0.0, 0.5], q=[0, 1], p=[0, 1], model=m)
    assert np.array_equal(traj.t, [0.0, 0.5])


COEFFICIENTS = ("delta", "alpha", "beta", "gamma", "omega", "lambda_h", "coupling_a")


def _outputs(model, q, p, c) -> bytes:
    """Every value rhs_fn, jac_fn and forcing_omega give at the points, as bytes."""
    values = [*rhs_fn(model)(q, p, c), *jac_fn(model)(q, p), forcing_omega(model)]
    return np.array(np.broadcast_arrays(*values)).tobytes()


def test_model_fields_name_exactly_the_coefficients_a_kind_reads():
    assert set(MODEL_FIELDS) == set(ModelKind)
    assert set(COEFFICIENTS) == {f.name for f in fields(ModelSpec)} - {"kind"}
    rng = np.random.default_rng(2024)
    q, p, c = rng.uniform(-2, 2, size=(3, 16))
    for kind in ModelKind:
        assert set(MODEL_FIELDS[kind]) <= set(COEFFICIENTS), kind
        # nonzero values that stay valid at 1.5 times (lambda_h <= 1)
        values = dict(zip(COEFFICIENTS, rng.uniform(0.2, 0.6, size=7)))
        model = ModelSpec(kind=kind, **values)
        before = _outputs(model, q, p, c)
        for name in COEFFICIENTS:
            scaled = ModelSpec(kind=kind, **{**values, name: 1.5 * values[name]})
            changed = _outputs(scaled, q, p, c) != before
            assert changed == (name in MODEL_FIELDS[kind]), (kind, name)
