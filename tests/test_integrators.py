import dataclasses
import math

import numpy as np
import pytest

from duffinglab.analysis import LyapunovConfig, lyapunov_spectrum
from duffinglab.bifurcation import preset
from duffinglab.dynamics import (
    FlaggedOverflow,
    ModelKind,
    ModelSpec,
    State,
    conserved_offset,
    rhs_fn,
)
from duffinglab.integrators import (
    IntegrationConfig,
    Method,
    _rk4_update,
    integrate,
    iterate_fd_duffing,
    record_rk4,
    step_euler,
    step_rk4,
)

HARMONIC = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.0, alpha=1.0)
ECO_CASE1 = ModelSpec(
    kind=ModelKind.ECOLOGY, coupling_a=0.2, beta=0.001, omega=0.06, alpha=-0.0005
)
FD_MODEL = ModelSpec(
    kind=ModelKind.DUFFING_HOMOTOPY, delta=1.0, alpha=0.005, beta=0.02,
    gamma=-0.04, omega=0.001, lambda_h=0.1,
)


def max_error_vs_cos(traj):
    return max(abs(s.q - math.cos(s.t)) for s in traj.samples)


def test_step_euler_harmonic_single_step():
    s = step_euler(HARMONIC, State(1.0, 0.0, 0.0), 0.1)
    assert (s.q, s.p, s.t) == (1.0, -0.1, 0.1)


def test_step_euler_fixed_point_only_advances_time():
    # lambda_h=0 zeroes dp; p=0 zeroes dq
    m = ModelSpec(kind=ModelKind.DUFFING_HOMOTOPY, lambda_h=0.0, gamma=1.0,
                  omega=1.0)
    s = step_euler(m, State(0.3, 0.0, 2.0), 0.5)
    assert (s.q, s.p, s.t) == (0.3, 0.0, 2.5)


def test_step_euler_chaos_origin():
    m = ModelSpec(kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2, omega=1.1)
    s = step_euler(m, State(0.0, 0.0, 0.0), 0.01)
    assert (s.q, s.p, s.t) == (0.0, 0.002, 0.01)


def test_step_rk4_matches_cosine_to_fifth_order():
    s = step_rk4(HARMONIC, State(1.0, 0.0, 0.0), 0.1)
    assert abs(s.q - math.cos(0.1)) <= 1e-7


def test_step_rk4_preserves_ecology_offset_per_step():
    s0 = State(0.08, 0.07, 0.0)
    s1 = step_rk4(ECO_CASE1, s0, 0.01)
    assert conserved_offset(ECO_CASE1, s1) == pytest.approx(0.06992, abs=1e-12)


def test_integrate_sample_count_and_final_state():
    cfg = IntegrationConfig(h=0.1, t0=0.0, t_max=10.0, method=Method.RK4,
                            record_stride=10)
    traj = integrate(HARMONIC, State(1.0, 0.0, 0.0), cfg)
    # initial + steps 10,20,...,100 (the last of which is the final state)
    assert cfg.n_steps == 100
    assert len(traj.samples) == 11
    times = traj.t
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(10.0, abs=1e-12)
    assert np.all(np.diff(times) > 0)


def test_integrate_records_final_state_off_stride():
    cfg = IntegrationConfig(h=0.1, t0=0.0, t_max=1.04, record_stride=4)
    traj = integrate(HARMONIC, State(1.0, 0.0, 0.0), cfg)
    # 10 steps (t_max honored within h): s0, steps 4 and 8, final step 10
    assert [round(t, 10) for t in traj.t] == [0.0, 0.4, 0.8, 1.0]


def test_integrate_full_period_harmonic():
    # step chosen so the fixed grid lands exactly on the period
    h = 2 * math.pi / 628
    cfg = IntegrationConfig(h=h, t0=0.0, t_max=2 * math.pi)
    traj = integrate(HARMONIC, State(1.0, 0.0, 0.0), cfg)
    assert cfg.n_steps == 628
    assert abs(traj.samples[-1].q - 1.0) <= 1e-8


def test_integrate_homotopy_lambda_zero_is_constant():
    m = ModelSpec(kind=ModelKind.DUFFING_HOMOTOPY, lambda_h=0.0, gamma=0.5,
                  omega=2.0)
    for method in Method:
        cfg = IntegrationConfig(h=0.05, t0=0.0, t_max=5.0, method=method)
        traj = integrate(m, State(0.3, 0.0, 0.0), cfg)
        assert all(s.q == 0.3 and s.p == 0.0 for s in traj.samples)


@pytest.mark.parametrize(
    "method,lo,hi",
    [(Method.RK4, 1.0 / 24.0, 1.0 / 10.0), (Method.EULER, 1.0 / 3.0, 2.0 / 3.0)],
)
def test_order_of_accuracy_on_harmonic(method, lo, hi):
    errs = {}
    for h in (0.01, 0.005):
        cfg = IntegrationConfig(h=h, t0=0.0, t_max=10.0, method=method)
        errs[h] = max_error_vs_cos(integrate(HARMONIC, State(1.0, 0.0, 0.0), cfg))
    ratio = errs[0.005] / errs[0.01]
    assert lo <= ratio <= hi


def test_integrate_is_deterministic():
    cfg = IntegrationConfig(h=0.01, t0=0.0, t_max=20.0)
    m = ModelSpec(kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2, omega=1.1)
    a = integrate(m, State(0.0, 0.0, 0.0), cfg)
    b = integrate(m, State(0.0, 0.0, 0.0), cfg)
    assert a.samples == b.samples


def test_integrate_ecology_conservation_long_run():
    cfg = IntegrationConfig(h=0.01, t0=0.0, t_max=1000.0, record_stride=1000)
    s0 = State(0.08, 0.07, 0.0)
    traj = integrate(ECO_CASE1, s0, cfg)
    off0 = conserved_offset(ECO_CASE1, s0)
    drift = abs(conserved_offset(ECO_CASE1, traj.samples[-1]) - off0)
    assert drift <= 1e-9 * (1.0 + abs(off0))


def test_integrate_overflow_returns_partial_and_flag():
    # strong anti-restoring linear system blows past float range quickly
    m = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.0, alpha=-1e8)
    cfg = IntegrationConfig(h=0.01, t0=0.0, t_max=100.0, record_stride=10)
    traj = integrate(m, State(1.0, 1.0, 0.0), cfg)
    assert traj.diverged
    assert len(traj.samples) >= 1
    assert all(math.isfinite(s.q) and math.isfinite(s.p) for s in traj.samples)
    assert traj.samples[-1].t < cfg.t_max


def test_integrate_rejects_mismatched_start_time():
    cfg = IntegrationConfig(h=0.1, t0=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        integrate(HARMONIC, State(1.0, 0.0, 0.5), cfg)


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(h=-0.1, t0=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(h=0.1, t0=1.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(h=2.0, t0=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(h=0.1, t0=0.0, t_max=1.0, record_stride=0)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "field,build",
    [
        ("record_stride",
         lambda v: IntegrationConfig(h=0.1, t0=0.0, t_max=1.0, record_stride=v)),
        ("renorm_every",
         lambda v: LyapunovConfig(t_transient=0.0, t_total=10.0, h=0.01,
                                  renorm_every=v)),
        ("n_samples", lambda v: dataclasses.replace(preset("BIF_CASE_1"), n_samples=v)),
    ],
    ids=["record_stride", "renorm_every", "n_samples"],
)
def test_non_finite_integer_field_is_value_error(field, build, value):
    with pytest.raises(ValueError, match=field):
        build(value)


# Textbook steps that evaluate the forcing afresh at every stage: the
# reference for integrate's once-per-distinct-stage-time forcing.
def _textbook_euler(model, q, p, t, h):
    dq, dp = rhs_fn(model)(q, p, math.cos(model.omega * t))
    return q + h * dq, p + h * dp


def _textbook_rk4(model, q, p, t, h):
    f, w = rhs_fn(model), model.omega
    k1q, k1p = f(q, p, math.cos(w * t))
    k2q, k2p = f(q + 0.5 * h * k1q, p + 0.5 * h * k1p, math.cos(w * (t + 0.5 * h)))
    k3q, k3p = f(q + 0.5 * h * k2q, p + 0.5 * h * k2p, math.cos(w * (t + 0.5 * h)))
    k4q, k4p = f(q + h * k3q, p + h * k3p, math.cos(w * (t + h)))
    return (
        q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
        p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


ALL_KINDS = {
    ModelKind.DUFFING_CLASSIC: dict(delta=0.1, alpha=1.0, beta=0.2, gamma=0.3,
                                    omega=1.3),
    ModelKind.DUFFING_HOMOTOPY: dict(delta=0.1, alpha=1.0, beta=0.2, gamma=0.3,
                                     omega=1.3, lambda_h=0.5),
    ModelKind.DUFFING_CHAOS: dict(delta=0.05, gamma=0.2, omega=1.1),
    ModelKind.DUFFING_QUINTIC: dict(delta=0.05, beta=0.3, gamma=0.2, omega=0.7),
    ModelKind.ECOLOGY: dict(coupling_a=0.2, beta=0.001, alpha=-0.0005, omega=0.9),
    ModelKind.LINEAR_TEST: dict(delta=0.1, alpha=1.0),
}


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", list(ModelKind))
def test_integrate_and_steps_equal_textbook_stages_bitwise(kind, method):
    model = ModelSpec(kind=kind, **ALL_KINDS[kind])
    textbook, step = {
        Method.RK4: (_textbook_rk4, step_rk4),
        Method.EULER: (_textbook_euler, step_euler),
    }[method]
    t0, h = 0.37, 0.013
    cfg = IntegrationConfig(h=h, t0=t0, t_max=t0 + 300 * h, method=method)
    starts = [t0 + i * h for i in range(cfg.n_steps)]
    # the start time equals the previous step's end time for some steps only,
    # so both branches of integrate's forcing reuse run
    reuse = [b == a + h for a, b in zip(starts, starts[1:])]
    assert any(reuse) and not all(reuse)

    traj = integrate(model, State(0.1, -0.2, t0), cfg)
    assert not traj.diverged and len(traj.samples) == cfg.n_steps + 1
    q, p = 0.1, -0.2
    for t, s in zip(starts, traj.samples[1:]):
        stepped = step(model, State(q, p, t), h)
        q, p = textbook(model, q, p, t, h)
        assert (s.q, s.p) == (stepped.q, stepped.p) == (q, p)


# Signed zeros, subnormals, a value whose cube overflows, infinities and nan.
SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, math.inf, -math.inf,
           math.nan, 0.3, -1.7]


def _special_lanes(shift):
    """(q, p, c1, c2, c4) over every pair of SPECIAL values for (q, p)."""
    q, p = (x.ravel() for x in np.meshgrid(np.roll(SPECIAL, shift), SPECIAL))
    return [q, p, *(np.roll(q, k) for k in (3, 5, 7))]


@pytest.mark.parametrize(
    "f",
    [rhs_fn(ModelSpec(kind=kind, **ALL_KINDS[kind])) for kind in ModelKind]
    + [lambda q, p, c: (-p, -(q * c) - 0.5), lambda q, p, c: (0.0 * p + c, -0.0 * q)],
    ids=[kind.value for kind in ModelKind] + ["unary_minus", "signed_zero"],
)
def test_replayed_step_equals_rk4_update_bitwise(f):
    h = 0.013
    n_temps, bind = record_rk4(f, h)
    n = len(SPECIAL) ** 2
    ins, outs = [np.empty(n) for _ in range(5)], [np.empty(n) for _ in range(2)]
    prog = bind(ins, outs, [np.full(n, 7.0) for _ in range(n_temps)])
    # constants too are bound as float64 arrays (0-d), so no call converts one
    assert all(type(x) is np.ndarray and x.dtype == np.float64
               for _, a, b, _ in prog for x in (a, b))
    # twice, with other inputs: a stale or aliased buffer shows in one of them
    for shift in (0, 4):
        lanes = _special_lanes(shift)
        for buf, x in zip(ins, lanes):
            buf[:] = x
        with np.errstate(all="ignore"):
            for uf, a, b, out in prog:
                uf(a, b, out)
            q, p, c1, c2, c4 = lanes
            expected = _rk4_update(f, q, p, h, c1, c2, c4)
        assert [o.tobytes() for o in outs] == [e.tobytes() for e in expected]
        assert [b.tobytes() for b in ins] == [x.tobytes() for x in lanes]
        # A sweep tests its lanes once per block on this: a non-finite q (or
        # p) input gives a non-finite q_new (or p_new), whatever the others.
        for x, new in zip((q, p), outs):
            bad = ~np.isfinite(x)
            assert bad.any() and not np.isfinite(new[bad]).any()


@pytest.mark.parametrize(
    "f",
    [
        lambda q, p, c: (p, q / 2.0),
        lambda q, p, c: (p, 2.0 / q),
        lambda q, p, c: (p, q ** 3),
        lambda q, p, c: (p, abs(q)),
        lambda q, p, c: (p, np.cos(q)),
        lambda q, p, c: (p, math.cos(q)),
        lambda q, p, c: (p, np.float32(2.0) * q),
        lambda q, p, c: (p, np.ones(1) * q),
        lambda q, p, c: (p, -q if q < 0.0 else q),
        lambda q, p, c: (p, c if q == p else -c),
        lambda q, p, c: (p, q if q else c),
        lambda q, p, c: (p, q if p is not None and q != 0.0 else c),
    ],
    ids=["div", "rdiv", "pow", "abs", "ufunc", "math", "float32", "array",
         "less", "equal", "truth", "not_equal"],
)
def test_recording_an_unsupported_operation_is_type_error(f):
    with pytest.raises(TypeError):
        record_rk4(f, 0.01)


def _recording_rule(model, s0, cfg):
    """The (t, q, p) rows integrate must return, stepped one by one from
    State(q, p, t0 + (i-1)*h): s0, every stride-th step, the final step, and
    on overflow the last finite state unless it is recorded already.  Also
    returns the step that overflowed, None for a run that finished."""
    step = {Method.RK4: step_rk4, Method.EULER: step_euler}[cfg.method]
    t0, h, n, stride = cfg.t0, cfg.h, cfg.n_steps, cfg.record_stride
    rows, last = [(t0, s0.q, s0.p)], 0
    q, p = s0.q, s0.p
    for i in range(1, n + 1):
        try:
            s = step(model, State(q, p, t0 + (i - 1) * h), h)
        except FlaggedOverflow:
            if last != i - 1:
                rows.append((t0 + (i - 1) * h, q, p))
            return rows, i
        q, p = s.q, s.p
        if i % stride == 0 or i == n:
            rows.append((t0 + i * h, q, p))
            last = i
    return rows, None


def _rows(traj):
    return list(zip(traj.t.tolist(), traj.q.tolist(), traj.p.tolist()))


@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("method", list(Method))
def test_integrate_columns_follow_the_recording_rule(method, stride):
    kind = ModelKind.DUFFING_CHAOS
    model = ModelSpec(kind=kind, **ALL_KINDS[kind])
    t0, h = 0.37, 0.013
    s0 = State(0.1, -0.2, t0)
    for n in (20, 21):  # 21 is on every stride, 20 on stride 1 only
        cfg = IntegrationConfig(h=h, t0=t0, t_max=t0 + n * h, method=method,
                                record_stride=stride)
        assert cfg.n_steps == n
        rows, overflowed = _recording_rule(model, s0, cfg)
        traj = integrate(model, s0, cfg)
        assert overflowed is None and not traj.diverged
        assert _rows(traj) == rows


@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("method", list(Method))
def test_integrate_overflow_columns_follow_the_recording_rule(method, stride):
    model = ModelSpec(kind=ModelKind.LINEAR_TEST, alpha=-1e4)
    cfg = IntegrationConfig(h=0.01, t0=0.0, t_max=100.0, method=method,
                            record_stride=stride)
    where = set()
    for k in range(12):
        # each factor e in s0 moves the overflow by one or two steps
        s0 = State(math.exp(-k), 0.0, 0.0)
        rows, overflowed = _recording_rule(model, s0, cfg)
        traj = integrate(model, s0, cfg)
        assert overflowed is not None and traj.diverged
        assert _rows(traj) == rows
        if (overflowed - 1) % stride == 0:
            where.add("just after a recorded step")
        elif overflowed % stride == 0:
            where.add("on a recorded step")
        else:
            where.add("between recorded steps")
    assert len(where) == (1 if stride == 1 else 3)


def test_unforced_kind_never_reads_omega():
    # omega*t overflows to inf here; LINEAR_TEST must not evaluate its forcing
    base = ModelSpec(kind=ModelKind.LINEAR_TEST, delta=0.1, alpha=1.0)
    odd = dataclasses.replace(base, omega=1e308)
    s0 = State(1.0, 0.0, 0.0)
    for method in Method:
        cfg = IntegrationConfig(h=0.1, t0=0.0, t_max=5.0, method=method)
        traj = integrate(odd, s0, cfg)
        assert not traj.diverged and traj.samples == integrate(base, s0, cfg).samples
    s = State(1.0, 0.0, 3.0)
    assert step_rk4(odd, s, 0.1) == step_rk4(base, s, 0.1)
    assert step_euler(odd, s, 0.1) == step_euler(base, s, 0.1)
    lcfg = LyapunovConfig(0.0, 5.0, 0.01)
    assert lyapunov_spectrum(odd, s0, lcfg) == lyapunov_spectrum(base, s0, lcfg)


def test_fd_lambda_zero_is_free_second_difference():
    m = ModelSpec(kind=ModelKind.DUFFING_HOMOTOPY, lambda_h=0.0, alpha=1.0,
                  beta=1.0, gamma=1.0, omega=1.0)
    xs = iterate_fd_duffing(m, 0.0, 0.1, h=0.01, n=6)
    assert np.allclose(xs, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], atol=1e-15)


def test_fd_first_computed_value():
    xs = iterate_fd_duffing(FD_MODEL, 0.0, 0.0, h=0.01, n=2)
    assert xs[2] == pytest.approx(-3.996004e-7, abs=1e-12)


def test_fd_long_run_stays_bounded():
    xs = iterate_fd_duffing(FD_MODEL, 0.0, 0.0, h=0.01, n=10000)
    assert len(xs) == 10001
    assert np.all(np.isfinite(xs))
    assert np.max(np.abs(xs)) < 10.0


def test_fd_overflow_truncates():
    m = ModelSpec(kind=ModelKind.DUFFING_HOMOTOPY, lambda_h=1.0, alpha=-1e9,
                  beta=0.0, gamma=0.0, omega=1.0)
    xs = iterate_fd_duffing(m, 0.0, 0.1, h=0.01, n=10000)
    assert len(xs) < 10001
    assert np.all(np.isfinite(xs))


def test_fd_validation():
    with pytest.raises(ValueError):
        iterate_fd_duffing(FD_MODEL, 0.0, 0.0, h=0.01, n=1)
    with pytest.raises(ValueError):
        iterate_fd_duffing(FD_MODEL, 0.0, 0.0, h=0.0, n=10)
    with pytest.raises(ValueError):
        iterate_fd_duffing(HARMONIC, 0.0, 0.0, h=0.01, n=10)
