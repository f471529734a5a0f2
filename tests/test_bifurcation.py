import dataclasses
import math

import numpy as np
import pytest

from duffinglab import bifurcation
from duffinglab.bifurcation import (
    PRESET_IDS,
    DynamicsPreset,
    FdPreset,
    SweepConfig,
    preset,
    sweep_omega,
)
from duffinglab.dynamics import ModelKind, ModelSpec, State
from duffinglab.integrators import IntegrationConfig, integrate


def short_case1(n_samples=16, t_max=50.0):
    cfg = preset("BIF_CASE_1")
    return dataclasses.replace(cfg, n_samples=n_samples, t_max=t_max)


def test_two_samples_hit_both_endpoints():
    cfg = short_case1(n_samples=2, t_max=10.0)
    records = sweep_omega(cfg)
    assert len(records) == 2
    assert records[0].omega == cfg.omega_min
    assert records[1].omega == cfg.omega_max


def test_record_count_order_and_uniform_grid():
    cfg = short_case1(n_samples=25)
    records = sweep_omega(cfg)
    assert len(records) == 25
    omegas = np.array([r.omega for r in records])
    assert np.all(np.diff(omegas) > 0)
    spacing = (cfg.omega_max - cfg.omega_min) / 24
    assert np.allclose(np.diff(omegas), spacing, rtol=1e-12)


def test_sweep_is_deterministic():
    cfg = short_case1(n_samples=300, t_max=5.0)
    assert sweep_omega(cfg) == sweep_omega(cfg)


def _mixed_divergence_sweep():
    # alpha > 0 makes the quintic term repulsive beyond |q| = 1: within t=5
    # some lanes are forced past it and blow up, the others stay bounded
    template = ModelSpec(kind=ModelKind.ECOLOGY, alpha=1.0, beta=0.5,
                         coupling_a=0.0)
    return SweepConfig(
        model_template=template, omega_min=0.1, omega_max=6.0, n_samples=12,
        s0=State(0.8, 0.0, 0.0), t_max=5.0, h=0.01,
    )


def _chaos_sweep():
    template = ModelSpec(kind=ModelKind.DUFFING_CHAOS, delta=0.05, gamma=0.2,
                         omega=1.1)
    return SweepConfig(
        model_template=template, omega_min=0.5, omega_max=1.5, n_samples=6,
        s0=State(0.1, 0.0, 0.0), t_max=20.0, h=0.01,
    )


def _all_dead_sweep():
    # positive quintic coefficient from a large start blows up immediately
    template = ModelSpec(kind=ModelKind.ECOLOGY, alpha=1.0, beta=0.5,
                         coupling_a=0.1)
    return SweepConfig(
        model_template=template, omega_min=0.1, omega_max=1.0, n_samples=6,
        s0=State(3.0, 0.0, 0.0), t_max=10.0, h=0.01,
    )


def _late_divergence_sweep():
    # anti-damped softening Duffing: lanes escape past |q| = 1 one by one from
    # about step 940 on, many 64-step blocks in (two of them within one
    # block), and one lane stays bounded
    template = ModelSpec(kind=ModelKind.DUFFING_CLASSIC, delta=-0.1, alpha=1.0,
                         beta=-1.0, gamma=0.15)
    return SweepConfig(
        model_template=template, omega_min=0.5, omega_max=1.5, n_samples=8,
        s0=State(0.1, -0.2, 0.37), t_max=20.37, h=0.013,
    )


# Kinds whose dq is the input p itself; s0.t and h make the forcing reuse
# test t == t_end both true and false.
def _kind_sweep(kind, **coeffs):
    return lambda: SweepConfig(
        model_template=ModelSpec(kind=kind, **coeffs), omega_min=0.5, omega_max=1.5,
        n_samples=5, s0=State(0.1, -0.2, 0.37), t_max=10.37, h=0.013,
    )


@pytest.mark.parametrize(
    "make_cfg",
    [lambda: short_case1(n_samples=8, t_max=20.0), _chaos_sweep,
     _mixed_divergence_sweep, lambda: short_case1(n_samples=2, t_max=20.0),
     _kind_sweep(ModelKind.DUFFING_CLASSIC, delta=0.1, alpha=1.0, beta=0.2, gamma=0.3),
     _kind_sweep(ModelKind.DUFFING_HOMOTOPY, delta=0.1, alpha=1.0, beta=0.2,
                 gamma=0.3, lambda_h=0.5),
     _kind_sweep(ModelKind.DUFFING_QUINTIC, delta=0.05, beta=0.3, gamma=0.2),
     _kind_sweep(ModelKind.LINEAR_TEST, delta=0.1, alpha=1.0),
     _all_dead_sweep, _late_divergence_sweep],
    ids=["bif_case_1", "duffing_chaos", "ecology_mixed_divergence", "two_lanes",
         "duffing_classic", "duffing_homotopy", "duffing_quintic", "linear_test",
         "all_lanes_dead", "late_divergence"],
)
def test_sweep_lane_equals_scalar_rk4_bitwise(make_cfg):
    cfg = make_cfg()
    records = sweep_omega(cfg)
    run = IntegrationConfig(h=cfg.h, t0=cfg.s0.t, t_max=cfg.t_max)
    for r in records:
        model = dataclasses.replace(cfg.model_template, omega=r.omega)
        traj = integrate(model, cfg.s0, run)
        last = traj.samples[-1]
        assert (r.x_final, r.y_final, r.diverged) == (last.q, last.p, traj.diverged)


@pytest.mark.parametrize(
    "make_cfg", [_mixed_divergence_sweep, _all_dead_sweep, _late_divergence_sweep],
    ids=["ecology_mixed_divergence", "all_lanes_dead", "late_divergence"],
)
def test_sweep_block_rollback_is_bitwise_for_any_block_length(make_cfg, monkeypatch):
    # A block in which a lane dies is rolled back and run again step by step:
    # the records must not depend on where the block boundaries fall.
    cfg = make_cfg()
    runs = []
    for block in (1, 2, 7, 64):
        monkeypatch.setattr(bifurcation, "_BLOCK", block)
        runs.append([
            (r.omega.hex(), r.x_final.hex(), r.y_final.hex(),
             r.conservation_residual.hex(), r.diverged)
            for r in sweep_omega(cfg)
        ])
    assert any(diverged for *_, diverged in runs[0])
    assert all(run == runs[0] for run in runs[1:])


def test_mixed_divergence_sweep_has_both_kinds_of_lane():
    records = sweep_omega(_mixed_divergence_sweep())
    assert 0 < sum(r.diverged for r in records) < len(records)
    assert all(math.isfinite(r.x_final) and math.isfinite(r.y_final) for r in records)


def test_sweep_conservation_residual_is_affine_consistency():
    cfg = short_case1()
    off0 = cfg.s0.p - cfg.model_template.beta * cfg.s0.q
    for r in sweep_omega(cfg):
        assert not r.diverged
        recomputed = abs((r.y_final - cfg.model_template.beta * r.x_final) - off0)
        assert r.conservation_residual == recomputed
        assert r.conservation_residual <= 1e-9


def test_sweep_non_ecology_records_zero_residual():
    template = ModelSpec(kind=ModelKind.DUFFING_CLASSIC, delta=0.1, alpha=1.0,
                         beta=0.2, gamma=0.3, omega=1.0)
    cfg = SweepConfig(
        model_template=template, omega_min=0.5, omega_max=1.5, n_samples=5,
        s0=State(0.1, 0.0, 0.0), t_max=20.0, h=0.01,
    )
    records = sweep_omega(cfg)
    assert all(r.conservation_residual == 0.0 for r in records)
    assert all(not r.diverged for r in records)


def test_sweep_flags_divergent_samples_and_keeps_going():
    records = sweep_omega(_all_dead_sweep())
    assert len(records) == 6
    assert all(r.diverged for r in records)
    assert all(math.isfinite(r.x_final) and math.isfinite(r.y_final) for r in records)


def test_sweep_config_validation():
    template = ModelSpec(kind=ModelKind.ECOLOGY, beta=1.0)
    s0 = State(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SweepConfig(template, 1.0, 0.5, 10, s0, 10.0, 0.01)
    with pytest.raises(ValueError):
        SweepConfig(template, 0.1, 0.5, 1, s0, 10.0, 0.01)
    with pytest.raises(ValueError):
        SweepConfig(template, 0.1, 0.5, 10, s0, -1.0, 0.01)
    # the horizon must cover one step, as for IntegrationConfig
    with pytest.raises(ValueError, match="span must cover at least one step"):
        SweepConfig(template, 0.1, 0.5, 10, s0, 0.004, 0.01)
    SweepConfig(template, 0.1, 0.5, 10, s0, 0.01, 0.01)  # one step is enough
    # finite bounds whose span overflows: the grid would hold nan and inf
    with pytest.raises(ValueError, match=r"omega window \[-1e\+308, 1e\+308\]"):
        SweepConfig(template, -1e308, 1e308, 3, s0, 0.05, 0.01)
    SweepConfig(template, -8e307, 8e307, 3, s0, 0.05, 0.01)  # a finite span is fine


def test_preset_ids_cover_all_cases():
    assert set(PRESET_IDS) == {
        "BIF_CASE_1", "BIF_CASE_2", "BIF_CASE_3",
        "ECO_DYN_1", "ECO_DYN_2", "FD_PAPER",
        "CHAOS_A02", "QUINTIC_A00025", "QUINTIC_A0002", "QUINTIC_A000025",
    }


def test_preset_bif_case_values():
    c1 = preset("BIF_CASE_1")
    assert isinstance(c1, SweepConfig)
    assert c1.omega_min == 0.000025
    assert c1.omega_max == 0.003
    assert c1.n_samples == 500
    assert c1.t_max == 10000.0
    assert c1.model_template.coupling_a == -0.095
    assert c1.model_template.beta == 2.00056
    assert c1.model_template.alpha == -0.0000056

    c2 = preset("BIF_CASE_2")
    assert (c2.omega_min, c2.omega_max) == (0.0000237, 0.00281)
    assert c2.model_template.coupling_a == -0.000095
    assert c2.model_template.beta == -3.00056
    assert c2.model_template.alpha == -0.6

    c3 = preset("BIF_CASE_3")
    assert (c3.omega_min, c3.omega_max) == (0.000000000000237, 0.0000000008)
    assert c3.model_template.alpha == -0.0006


def test_preset_dynamics_values():
    e1 = preset("ECO_DYN_1")
    assert isinstance(e1, DynamicsPreset)
    assert (e1.s0.q, e1.s0.p) == (0.08, 0.07)
    assert e1.model.coupling_a == 0.2
    assert e1.model.beta == 0.001
    assert e1.model.omega == 0.06
    assert e1.model.alpha == -0.0005

    e2 = preset("ECO_DYN_2")
    assert (e2.s0.q, e2.s0.p) == (0.8, 0.9)
    assert e2.model.coupling_a == 0.0004
    assert e2.model.beta == 0.1

    ch = preset("CHAOS_A02")
    assert ch.s0 == State(0.0, 0.0, 0.0)
    assert ch.model.delta == 0.05
    assert ch.model.omega == 1.1
    assert ch.model.gamma == 0.2
    assert ch.integration.t_max == 800.0
    assert ch.paper_reported == (0.503437, 0.551156)

    qu = preset("QUINTIC_A00025")
    assert qu.model.gamma == 0.0025
    assert qu.model.omega == 0.004
    assert qu.model.beta == 0.3
    assert preset("QUINTIC_A0002").model.gamma == 0.2
    assert preset("QUINTIC_A000025").model.gamma == 0.00025


def test_preset_fd_values():
    fd = preset("FD_PAPER")
    assert isinstance(fd, FdPreset)
    assert fd.h == 0.01
    assert fd.model.lambda_h == 0.1
    assert fd.model.alpha == 0.005
    assert fd.model.beta == 0.02
    assert fd.model.gamma == -0.04
    assert fd.model.omega == 0.001
    assert (fd.x0, fd.x1) == (0.0, 0.0)


def test_preset_unknown_id_is_usage_error():
    with pytest.raises(ValueError):
        preset("NOPE")

