import json
import math
import random
import struct
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from duffinglab.analysis import LyapunovResult
from duffinglab.cli import (
    MAX_ROWS,
    MAX_WORK,
    MIN_PASS,
    SCALAR_STEP,
    RunManifest,
    _build_parser,
    main,
    read_csv_document,
    render_csv,
    render_json,
    run,
    sweep_records_from_csv,
)
from duffinglab.dynamics import Trajectory
from duffinglab.integrators import step_count


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_command_lists_every_id(capsys):
    code, out, err = run_main(["presets"], capsys)
    assert code == 0
    assert out.startswith("preset,field,value\n")
    for case_id in ("BIF_CASE_1", "ECO_DYN_2", "FD_PAPER", "CHAOS_A02"):
        assert case_id in out


def test_simulate_csv_header_and_values(capsys):
    code, out, err = run_main(
        ["simulate", "--preset", "CHAOS_A02", "--t-max", "1"], capsys
    )
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["t", "x", "v"]
    assert len(rows) == 101
    assert rows[0] == {"t": 0.0, "x": 0.0, "v": 0.0}


def test_simulate_euler_method_flag(capsys):
    code_rk, out_rk, _ = run_main(
        ["simulate", "--preset", "CHAOS_A02", "--t-max", "5"], capsys
    )
    code_eu, out_eu, _ = run_main(
        ["simulate", "--preset", "CHAOS_A02", "--t-max", "5", "--method", "euler"],
        capsys,
    )
    assert code_rk == code_eu == 0
    assert out_rk != out_eu


def test_fd_csv_schema(capsys):
    code, out, err = run_main(
        ["fd", "--preset", "FD_PAPER", "--set", "fd.n=10"], capsys
    )
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["n", "x"]
    assert len(rows) == 11
    assert rows[2]["x"] == pytest.approx(-3.996004e-7, abs=1e-12)


def test_homotopy_csv_schema_and_consistency(capsys):
    code, out, err = run_main(["homotopy", "--t-max", "2", "--h", "0.5"], capsys)
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["t", "x_primary", "x_correction", "x_total"]
    assert len(rows) == 5
    for row in rows:
        assert row["x_total"] == pytest.approx(
            row["x_primary"] + row["x_correction"], abs=1e-15
        )


def test_picard_csv_matches_trajectory_shape(capsys):
    code, out, err = run_main(
        ["picard", "--preset", "CHAOS_A02", "--t-max", "1", "--set", "picard.k=8"],
        capsys,
    )
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["t", "x", "v"]
    assert len(rows) == 101


def test_compare_default_is_picard(capsys):
    code, out, err = run_main(
        ["compare", "--preset", "CHAOS_A02", "--t-max", "1"], capsys
    )
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["t", "x_rk4", "x_picard", "abs_diff"]
    assert max(r["abs_diff"] for r in rows) <= 1e-3


def test_compare_with_homotopy_swaps_column(capsys):
    code, out, err = run_main(
        ["compare", "--preset", "CHAOS_A02", "--t-max", "1", "--with", "homotopy"],
        capsys,
    )
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["t", "x_rk4", "x_homotopy", "abs_diff"]


def test_lyapunov_csv_single_row_with_reported_values(capsys):
    code, out, err = run_main(
        [
            "lyapunov", "--preset", "CHAOS_A02",
            "--set", "lyapunov.t_transient=0",
            "--set", "lyapunov.t_total=10",
            "--set", "lyapunov.renorm_every=5",
        ],
        capsys,
    )
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == [
        "lambda1", "lambda2", "sum_residual", "renorm_count",
        "paper_reported_lambda1", "paper_reported_lambda2",
    ]
    assert len(rows) == 1
    assert rows[0]["paper_reported_lambda1"] == 0.503437
    assert rows[0]["paper_reported_lambda2"] == 0.551156
    assert rows[0]["lambda1"] >= rows[0]["lambda2"]


def test_bifurcate_tiny_run_counts_and_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_main(
        [
            "bifurcate", "--preset", "BIF_CASE_1", "--samples", "7",
            "--t-max", "5", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    columns, rows = read_csv_document(text)
    assert columns == ["omega", "x_final", "y_final", "conservation_residual",
                       "diverged"]
    assert len(rows) == 7
    records = sweep_records_from_csv(text)
    assert all(not r.diverged for r in records)


def test_bifurcate_output_is_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_main(
            [
                "bifurcate", "--preset", "BIF_CASE_2", "--samples", "9",
                "--t-max", "3", "--out", str(p),
            ],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_roundtrip_is_lossless(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_main(
        [
            "bifurcate", "--preset", "BIF_CASE_3", "--samples", "5",
            "--t-max", "2", "--out", str(out_path), "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    records = sweep_records_from_csv(text)
    from duffinglab.bifurcation import preset, sweep_omega
    import dataclasses

    cfg = dataclasses.replace(preset("BIF_CASE_3"), n_samples=5, t_max=2.0)
    direct = sweep_omega(cfg)
    for got, want in zip(records, direct):
        for name in ("omega", "x_final", "y_final", "conservation_residual"):
            g, w = getattr(got, name), getattr(want, name)
            assert g == w or abs(g - w) <= 1e-15 * abs(w)
        assert got.diverged == want.diverged


def test_rates_csv_uses_undefined_sentinel(capsys):
    code, out, err = run_main(["rates"], capsys)
    assert code == 0
    columns, rows = read_csv_document(out)
    assert columns == ["N", "error_N", "error_N1", "rate"]
    assert len(rows) == 20
    undef = [r for r in rows if r["rate"] is None]
    assert len(undef) == 1  # the one positive-error / zero-error pairing
    assert rows[1]["rate"] == pytest.approx(1.5, abs=1e-12)


def test_rates_json_serializes_undefined_as_null(capsys):
    code, out, err = run_main(["rates", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "rates"
    assert set(doc) == {"command", "config", "rows"}
    nulls = [r for r in doc["rows"] if r["rate"] is None]
    assert len(nulls) == 1


def test_json_shape_for_bifurcate(capsys):
    code, out, err = run_main(
        [
            "bifurcate", "--preset", "BIF_CASE_1", "--samples", "4",
            "--t-max", "2", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "bifurcate"
    assert doc["config"]["preset"] == "BIF_CASE_1"
    assert doc["config"]["sweep.n_samples"] == 4
    assert len(doc["rows"]) == 4
    assert set(doc["rows"][0]) == {
        "omega", "x_final", "y_final", "conservation_residual", "diverged"
    }
    assert all(isinstance(r["diverged"], bool) for r in doc["rows"])


def test_unknown_preset_is_usage_error(capsys):
    code, out, err = run_main(["simulate", "--preset", "NOPE"], capsys)
    assert code == 1
    assert out == ""
    assert "unknown preset" in err


def test_unknown_override_path_is_usage_error(capsys):
    code, out, err = run_main(
        ["simulate", "--preset", "CHAOS_A02", "--set", "model.mass=2"], capsys
    )
    assert code == 1
    assert "unknown override path" in err


def test_non_numeric_override_value_is_usage_error(capsys):
    code, out, err = run_main(
        ["simulate", "--preset", "CHAOS_A02", "--set", "model.delta=big"], capsys
    )
    assert code == 1
    assert "numeric" in err


def test_integer_field_rejects_fractional_override(capsys):
    code, out, err = run_main(
        ["bifurcate", "--preset", "BIF_CASE_1", "--samples", "4.5", "--t-max", "2"],
        capsys,
    )
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "CHAOS_A02", "--t-max", "inf"],
        ["simulate", "--preset", "CHAOS_A02", "--set", "run.t0=-inf"],
        ["simulate", "--preset", "CHAOS_A02", "--set", "run.record_stride=inf"],
        ["compare", "--preset", "CHAOS_A02", "--t-max", "inf"],
        ["picard", "--preset", "CHAOS_A02", "--t-max", "inf"],
        ["homotopy", "--t-max", "inf"],
        ["lyapunov", "--preset", "CHAOS_A02", "--set", "lyapunov.t_total=inf"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--t-max", "inf"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--omega-max", "inf"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--omega-min=-inf"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--samples", "inf"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--set", "s0.t=-inf"],
        # argparse reads a bare -inf as an option, so this one fails in parsing
        ["bifurcate", "--preset", "BIF_CASE_1", "--omega-min", "-inf"],
        ["homotopy", "--set", "homotopy.omega=nan"],
        ["homotopy", "--set", "homotopy.correction_coeff=inf"],
        [
            "compare", "--preset", "CHAOS_A02", "--t-max", "1", "--with", "homotopy",
            "--set", "homotopy.omega=nan",
        ],
        # model and state overrides used to run and be reported as overflow
        ["simulate", "--preset", "CHAOS_A02", "--t-max", "1", "--set", "s0.q=nan"],
        [
            "simulate", "--preset", "CHAOS_A02", "--t-max", "1",
            "--set", "model.delta=inf",
        ],
        ["lyapunov", "--preset", "CHAOS_A02", "--set", "s0.q=inf"],
        ["fd", "--preset", "FD_PAPER", "--set", "fd.x0=nan"],
        [
            "bifurcate", "--preset", "BIF_CASE_1", "--samples", "3", "--t-max", "1",
            "--set", "model.alpha=nan",
        ],
        ["picard", "--preset", "CHAOS_A02", "--t-max", "1", "--set", "run.t0=nan"],
        # finite bounds whose span overflows would put nan and inf on the grid
        [
            "bifurcate", "--preset", "BIF_CASE_1", "--omega-min=-1e308",
            "--omega-max", "1e308", "--samples", "3", "--t-max", "0.05",
        ],
    ],
)
def test_non_finite_input_is_usage_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("duffing-lab: ")


def test_unallocatable_request_is_one_line_error(capsys):
    # About 8 TB of doubles: numpy refuses the buffer at once, allocating nothing.
    code, out, err = run_main(["fd", "--preset", "FD_PAPER", "--set", "fd.n=1e12"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("duffing-lab: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "CHAOS_A02", "--bogus"],
        ["simulate", "--preset", "CHAOS_A02", "--h", "abc"],
        ["simulate", "--preset", "CHAOS_A02", "--format", "xml"],
        ["nope"],
        [],
    ],
)
def test_malformed_command_line_is_one_line_usage_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("duffing-lab: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "CHAOS_A02", "--t-max", "0.004"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--samples", "3", "--t-max", "0.004"],
        ["picard", "--preset", "CHAOS_A02", "--t-max", "0.004"],
        ["compare", "--preset", "CHAOS_A02", "--t-max", "0.004"],
        ["homotopy", "--t-max", "0.004"],
    ],
    ids=["simulate", "bifurcate", "picard", "compare", "homotopy"],
)
def test_horizon_shorter_than_a_step_is_one_line_usage_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "duffing-lab: span must cover at least one step\n"

def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


COMMANDS = ("simulate", "fd", "homotopy", "picard", "compare", "lyapunov",
            "bifurcate", "rates", "presets")


def test_unknown_command_message_names_every_command(capsys):
    code, out, err = run_main(["nope"], capsys)
    assert code == 1 and out == ""
    assert all(repr(command) in err for command in COMMANDS)


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_equals_the_full_parsers(command, capsys):
    # main builds only the named command's subparser
    with pytest.raises(SystemExit):
        main([command, "-h"])
    own = capsys.readouterr().out
    with pytest.raises(SystemExit):
        _build_parser().parse_args([command, "-h"])
    assert own == capsys.readouterr().out


def test_overflow_exits_2_with_partial_document(capsys):
    code, out, err = run_main(
        [
            "simulate", "--preset", "CHAOS_A02", "--t-max", "5",
            "--set", "model.gamma=1e200",
        ],
        capsys,
    )
    assert code == 2
    assert "overflow" in err
    columns, rows = read_csv_document(out)
    assert columns == ["t", "x", "v"]
    assert all(math.isfinite(r["x"]) for r in rows)


def test_config_file_feeds_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "# sweep settings\n"
        "preset=BIF_CASE_1\n"
        "sweep.n_samples=4\n"
        "sweep.t_max=2\n"
        "format=json\n"
    )
    code, out, err = run_main(["bifurcate", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["sweep.n_samples"] == 4

    code, out, err = run_main(
        ["bifurcate", "--config", str(cfg), "--samples", "6"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["sweep.n_samples"] == 6


def test_homotopy_rejects_preset(capsys):
    code, out, err = run_main(["homotopy", "--preset", "CHAOS_A02"], capsys)
    assert code == 1


def test_bifurcate_requires_sweep_preset(capsys):
    code, out, err = run_main(["bifurcate", "--preset", "CHAOS_A02"], capsys)
    assert code == 1
    assert "not a sweep case" in err


def test_run_manifest_api_writes_stdout(capsys):
    code = run(RunManifest(command="rates"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("N,error_N,error_N1,rate\n")


def test_config_file_takes_only_the_keys_its_command_has(tmp_path, capsys):
    def with_file(argv, text):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        return run_main(argv + ["--config", str(conf)], capsys)

    for argv, key in [
        (["picard", "--preset", "CHAOS_A02", "--t-max", "1"], "method=euler"),
        (["lyapunov", "--preset", "CHAOS_A02"], "with=homotopy"),
        (["simulate", "--preset", "CHAOS_A02", "--t-max", "1"], "with=homotopy"),
        (["compare", "--preset", "CHAOS_A02", "--t-max", "1"], "method=euler"),
    ]:
        code, out, err = with_file(argv, key + "\n")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "does not apply" in err

    argv = ["simulate", "--preset", "CHAOS_A02", "--t-max", "1"]
    code, out, _ = with_file(argv, "method=euler\n")
    assert code == 0
    assert out == run_main(argv + ["--method", "euler"], capsys)[1]


# -- the work bound -------------------------------------------------------------


@pytest.fixture
def solver_calls(monkeypatch):
    """Swaps every solver ``duffinglab.cli`` calls for a stub that records its
    arguments and returns a minimal valid result at once."""
    import duffinglab.cli as cli

    calls = {}

    def integrate(model, s0, cfg):
        calls["integrate"] = dict(model=model, s0=s0, cfg=cfg)
        return Trajectory([s0.t, s0.t + cfg.h], [s0.q] * 2, [s0.p] * 2, model)

    def picard_solve(model, s0, grid, k):
        calls["picard_solve"] = dict(model=model, s0=s0, grid=grid, k=k)
        return Trajectory(grid[:2], [s0.q] * 2, [s0.p] * 2, model)

    def homotopy_approx(cfg, t):
        calls["homotopy_approx"] = dict(cfg=cfg, t=t)
        return 0.0 * t

    def lyapunov_spectrum(model, s0, cfg):
        calls["lyapunov_spectrum"] = dict(model=model, s0=s0, cfg=cfg)
        return LyapunovResult((0.0, 0.0), 0.0, 0, cfg.t_transient)

    def iterate_fd_duffing(params, x0, x1, h, n):
        calls["iterate_fd_duffing"] = dict(params=params, x0=x0, x1=x1, h=h, n=n)
        return np.zeros(n + 1)

    def sweep_omega(cfg):
        calls["sweep_omega"] = dict(cfg=cfg)
        return []

    stubs = (integrate, picard_solve, homotopy_approx, lyapunov_spectrum,
             iterate_fd_duffing, sweep_omega)
    for stub in stubs:
        monkeypatch.setattr(cli, stub.__name__, stub)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        # each of these ran until a timeout stopped it
        ["simulate", "--preset", "CHAOS_A02", "--h", "1e-300"],
        ["lyapunov", "--preset", "CHAOS_A02", "--set", "lyapunov.h=1e-300"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--samples", "1e7"],
        ["picard", "--preset", "CHAOS_A02", "--t-max", "1", "--set", "picard.k=1e9"],
        # 100 RK4 steps plus 1e7 Picard passes over 101 points
        ["compare", "--preset", "CHAOS_A02", "--t-max", "1", "--set", "picard.k=1e7"],
        ["homotopy", "--h", "1e-300"],
        ["fd", "--preset", "FD_PAPER", "--set", "fd.n=1e12"],
        # (t_max - t0)/h is inf: this one was an OverflowError traceback
        ["simulate", "--preset", "CHAOS_A02", "--h", "5e-324"],
        # 8e8 steps fit the work bound, but not as 8e8 + 1 recorded rows
        ["simulate", "--preset", "CHAOS_A02", "--h", "1e-6"],
        # 2 lanes x 5e8 steps and 3e8 passes over 3 points fit a bound in
        # steps; at their numpy call overhead they would run for hours
        ["bifurcate", "--preset", "BIF_CASE_1", "--samples", "2", "--t-max", "5e6"],
        [
            "picard", "--preset", "CHAOS_A02", "--h", "0.5", "--t-max", "1",
            "--set", "picard.k=3e8",
        ],
        # 1e9 scalar RK4 steps, respectively tangent steps, fit a bound in
        # steps; they would run for about 22 and 46 minutes
        [
            "simulate", "--preset", "CHAOS_A02", "--h", "1e-4", "--t-max", "1e5",
            "--set", "run.record_stride=1e6",
        ],
        [
            "lyapunov", "--preset", "CHAOS_A02", "--set", "lyapunov.h=1e-4",
            "--set", "lyapunov.t_total=1e5",
        ],
    ],
)
def test_request_over_the_work_bound_is_one_line_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("duffing-lab: request too large: ")


def test_work_bound_admits_exactly_max_work(solver_calls, capsys):
    # BIF_CASE_1 runs 10^6 steps per lane
    lanes = MAX_WORK // 10**6
    argv = ["bifurcate", "--preset", "BIF_CASE_1", "--samples"]
    assert run_main(argv + [str(lanes)], capsys)[0] == 0
    assert solver_calls["sweep_omega"]["cfg"].n_samples == lanes
    code, _, err = run_main(argv + [str(lanes + 1)], capsys)
    assert code == 1 and "request too large" in err


@pytest.mark.parametrize(
    "argv, steps, solver",
    [
        # each scalar RK4 step is charged SCALAR_STEP
        (["simulate", "--preset", "CHAOS_A02", "--set", "run.record_stride=1e6"],
         MAX_WORK // SCALAR_STEP, "integrate"),
        # each step with its tangent system is charged twice that
        (["lyapunov", "--preset", "CHAOS_A02"], MAX_WORK // (2 * SCALAR_STEP),
         "lyapunov_spectrum"),
    ],
)
def test_work_bound_charges_a_scalar_step_its_time(
    argv, steps, solver, solver_calls, capsys
):
    def run_steps(n):  # h = 1e-4 and t_max = n * 1e-4 ask for n steps
        return run_main(argv + ["--h", "1e-4", "--t-max", repr(n * 1e-4)], capsys)

    assert run_steps(steps)[0] == 0
    cfg = solver_calls[solver]["cfg"]
    t_max = cfg.t_max if solver == "integrate" else cfg.t_total
    assert step_count(0.0, t_max, cfg.h) == steps
    code, _, err = run_steps(steps + 1)
    assert code == 1 and "request too large" in err


def _small_pass_calls(calls):
    if "sweep_omega" in calls:
        return calls["sweep_omega"]["cfg"].t_max
    return calls["picard_solve"]["k"]


@pytest.mark.parametrize(
    "argv, path, fixed",
    [
        # 2 lanes, h = 1: each of the --t-max steps is charged MIN_PASS lanes
        (["bifurcate", "--preset", "BIF_CASE_1", "--samples", "2", "--h", "1"],
         "sweep.t_max", 0),
        # 3 grid points: each Picard pass is charged MIN_PASS points
        (["picard", "--preset", "CHAOS_A02", "--h", "0.5", "--t-max", "1"],
         "picard.k", 0),
        # the same, plus the 2 steps of the RK4 reference run
        (["compare", "--preset", "CHAOS_A02", "--h", "0.5", "--t-max", "1"],
         "picard.k", 2 * SCALAR_STEP),
    ],
)
def test_work_bound_charges_a_small_pass_min_pass(
    argv, path, fixed, solver_calls, capsys
):
    n = (MAX_WORK - fixed) // MIN_PASS
    assert run_main(argv + ["--set", f"{path}={n}"], capsys)[0] == 0
    assert _small_pass_calls(solver_calls) == n
    code, _, err = run_main(argv + ["--set", f"{path}={n + 1}"], capsys)
    assert code == 1 and "request too large" in err


@pytest.mark.parametrize(
    "argv, at, over, solver",
    [
        # stride 1: n + 1 rows
        (["simulate", "--preset", "CHAOS_A02", "--t-max"], "10000", "10000.01",
         "integrate"),
        # stride 10: n // 10 + 1 rows, and the final step when n is off-stride
        (["simulate", "--preset", "ECO_DYN_1", "--set", "run.record_stride=10",
          "--t-max"], "1e5", "100000.01", "integrate"),
        (["picard", "--preset", "CHAOS_A02", "--t-max"], "10000", "10000.01",
         "picard_solve"),
        (["compare", "--preset", "CHAOS_A02", "--t-max"], "10000", "10000.01",
         "integrate"),
        (["compare", "--preset", "CHAOS_A02", "--with", "homotopy", "--t-max"],
         "10000", "10000.01", "integrate"),
        (["homotopy", "--t-max"], "10000", "10000.01", "homotopy_approx"),
        (["fd", "--preset", "FD_PAPER", "--set"], "fd.n=1e6", "fd.n=1000001",
         "iterate_fd_duffing"),
        (["bifurcate", "--preset", "BIF_CASE_1", "--t-max", "1", "--samples"],
         "1000001", "1000002", "sweep_omega"),
    ],
)
def test_row_bound_admits_exactly_max_rows(
    argv, at, over, solver, solver_calls, tmp_path, capsys
):
    out = ["--out", str(tmp_path / "doc")]
    code, _, err = run_main(argv + [over] + out, capsys)
    assert code == 1 and not solver_calls
    assert err == (
        f"duffing-lab: request too large: {MAX_ROWS + 1} rows, more than {MAX_ROWS}\n"
    )
    assert run_main(argv + [at] + out, capsys) == (0, "", "")
    assert solver in solver_calls


def _preset_argvs():
    dynamics = ["CHAOS_A02", "ECO_DYN_1", "ECO_DYN_2", "QUINTIC_A00025",
                "QUINTIC_A0002", "QUINTIC_A000025"]
    for case in dynamics:
        for command in ("simulate", "picard", "compare", "lyapunov"):
            yield [command, "--preset", case]
        yield ["compare", "--preset", case, "--with", "homotopy"]
    for case in ("BIF_CASE_1", "BIF_CASE_2", "BIF_CASE_3"):
        yield ["bifurcate", "--preset", case]
    yield ["fd", "--preset", "FD_PAPER"]
    yield ["homotopy"]


def test_every_preset_at_full_size_is_under_the_work_bound(solver_calls, capsys):
    for argv in _preset_argvs():
        code, _, err = run_main(argv, capsys)
        assert (code, err) == (0, ""), argv


# -- every override path reaches its solver ---------------------------------------


def _grid_view(grid):
    return SimpleNamespace(t0=grid[0], h=grid[1] - grid[0], t_max=grid[-1])


def _received(calls) -> dict:
    """The object each override section reached, from the recorded calls."""
    got = {}
    if "sweep_omega" in calls:
        cfg = calls["sweep_omega"]["cfg"]
        got.update(model=cfg.model_template, s0=cfg.s0, sweep=cfg)
    if "iterate_fd_duffing" in calls:
        a = calls["iterate_fd_duffing"]
        got.update(model=a["params"], fd=SimpleNamespace(**a))
    if "lyapunov_spectrum" in calls:
        a = calls["lyapunov_spectrum"]
        got.update(model=a["model"], s0=a["s0"], lyapunov=a["cfg"])
    if "picard_solve" in calls:
        a = calls["picard_solve"]
        got.update(model=a["model"], s0=a["s0"], run=_grid_view(a["grid"]),
                   picard=SimpleNamespace(k=a["k"]))
    if "integrate" in calls:  # compare: the RK4 run, not its grid, carries run.*
        a = calls["integrate"]
        got.update(model=a["model"], s0=a["s0"], run=a["cfg"])
    if "homotopy_approx" in calls:
        a = calls["homotopy_approx"]
        got["homotopy"] = a["cfg"]
        if isinstance(a["t"], np.ndarray):
            got["grid"] = _grid_view(a["t"])
    return got


def _numeric_paths(argv, tmp_path) -> dict:
    out = tmp_path / "config.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    return {k: v for k, v in config.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "CHAOS_A02"],
        ["picard", "--preset", "CHAOS_A02"],
        ["compare", "--preset", "CHAOS_A02"],
        ["compare", "--preset", "CHAOS_A02", "--with", "homotopy"],
        ["lyapunov", "--preset", "CHAOS_A02"],
        ["fd", "--preset", "FD_PAPER"],
        # the full-size sweep is charged 9e8 lane-steps, too close to MAX_WORK
        # for a 1.5 x sweep.t_max; the --set comes before the one under test
        ["bifurcate", "--preset", "BIF_CASE_1", "--set", "sweep.t_max=100"],
        ["homotopy"],
    ],
)
def test_every_override_path_reaches_its_solver(argv, solver_calls, tmp_path, capsys):
    paths = _numeric_paths(argv, tmp_path)
    assert paths
    for path, old in paths.items():
        new = old + 1 if isinstance(old, int) else (old * 1.5 if old else 0.125)
        solver_calls.clear()
        assert main(argv + ["--set", f"{path}={new!r}"]) == 0, path
        section, name = path.split(".")
        got = getattr(_received(solver_calls)[section], name)
        if section == "grid" or (argv[0] == "picard" and section == "run"):
            assert got == pytest.approx(new, rel=1e-9), path
        else:
            assert got == new and type(got) is type(new), path
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["picard", "--preset", "CHAOS_A02", "--set", "run.record_stride=2"],
        ["lyapunov", "--preset", "CHAOS_A02", "--set", "run.h=0.1"],
        ["fd", "--preset", "FD_PAPER", "--set", "s0.q=1"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--set", "run.h=0.1"],
        # paths a command would not read: simulate, picard and compare start at
        # run.t0, compare --with homotopy runs no Picard pass, and every sweep
        # lane takes its omega from the grid
        ["simulate", "--preset", "CHAOS_A02", "--set", "s0.t=5"],
        ["picard", "--preset", "CHAOS_A02", "--set", "s0.t=5"],
        ["compare", "--preset", "CHAOS_A02", "--set", "s0.t=5"],
        [
            "compare", "--preset", "CHAOS_A02", "--with", "homotopy",
            "--set", "picard.k=3",
        ],
        ["bifurcate", "--preset", "BIF_CASE_1", "--set", "model.omega=0.001"],
        # coefficients the model kind does not read: ECOLOGY has no damping,
        # DUFFING_CHAOS fixes the linear stiffness at -1, and the FD recurrence
        # fixes the damping at 1
        ["simulate", "--preset", "ECO_DYN_1", "--set", "model.delta=5"],
        ["lyapunov", "--preset", "CHAOS_A02", "--set", "model.alpha=1"],
        ["fd", "--preset", "FD_PAPER", "--set", "model.delta=2"],
    ],
)
def test_other_commands_paths_stay_unknown(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 1 and out == ""
    assert "unknown override path" in err


# -- every model.* path changes the document ---------------------------------------


def _tiny_preset_argvs():
    """The preset runs that have a model, at the sizes of the pinned digests."""
    sizes = {"simulate": ["--t-max", "1"], "picard": ["--t-max", "1"],
             "compare": ["--t-max", "1"],
             "lyapunov": ["--t-max", "1", "--set", "lyapunov.t_transient=0"],
             "bifurcate": ["--t-max", "1", "--samples", "6"],
             "fd": ["--set", "fd.n=50"]}
    for argv in _preset_argvs():
        if argv[0] in sizes:
            yield argv + sizes[argv[0]]


@pytest.mark.parametrize("argv", list(_tiny_preset_argvs()), ids=" ".join)
def test_every_model_path_changes_the_document(argv, tmp_path, capsys):
    out = tmp_path / "doc.csv"

    def document(*extra):
        assert main(argv + [*extra, "--out", str(out)]) == 0
        return out.read_bytes()

    before = document()
    paths = {path: value for path, value in _numeric_paths(argv, tmp_path).items()
             if path.startswith("model.")}
    assert paths
    dead = [path for path, old in paths.items()
            if document("--set", f"{path}={old * 1.5 if old else 0.125!r}") == before]
    capsys.readouterr()
    assert dead == []


# -- override fuzz ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        # tiny runs, sized by --set so that the fuzzed --set after them wins
        ["simulate", "--preset", "CHAOS_A02", "--set", "run.t_max=0.05"],
        ["picard", "--preset", "CHAOS_A02", "--set", "run.t_max=0.05"],
        ["compare", "--preset", "CHAOS_A02", "--set", "run.t_max=0.05"],
        ["compare", "--preset", "CHAOS_A02", "--with", "homotopy",
         "--set", "run.t_max=0.05"],
        ["lyapunov", "--preset", "CHAOS_A02", "--set", "lyapunov.t_transient=0",
         "--set", "lyapunov.t_total=2"],
        ["fd", "--preset", "FD_PAPER", "--set", "fd.n=50"],
        ["bifurcate", "--preset", "BIF_CASE_1", "--set", "sweep.n_samples=3",
         "--set", "sweep.t_max=1"],
        ["homotopy", "--set", "grid.t_max=1"],
    ],
)
def test_every_path_at_extreme_values_exits_cleanly(argv, tmp_path, capsys):
    out = ["--out", str(tmp_path / "doc")]
    for path in _numeric_paths(argv, tmp_path):
        for value in ("0", "-1", "1e-300", "1e300", "inf", "nan"):
            start = time.perf_counter()
            code = main(argv + ["--set", f"{path}={value}"] + out)
            took = time.perf_counter() - start
            err = capsys.readouterr().err
            case = (path, value, code, err)
            assert code in (0, 1, 2), case
            if code:
                assert err.count("\n") == 1 and err.startswith("duffing-lab: "), case
            else:
                assert err == "", case
            assert took < 2.0, case


# -- renderer and parser against per-value references --------------------------
#
# The references are copies of the per-value renderer and parser that the
# column-format CSV layer replaced; every document must stay byte-identical.


def _ref_fmt(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _ref_render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_ref_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _ref_jsonable(v):
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _ref_render_json(command, config, columns, rows) -> str:
    doc = {
        "command": command,
        "config": {k: _ref_jsonable(v) for k, v in config.items()},
        "rows": [{c: _ref_jsonable(v) for c, v in zip(columns, row)} for row in rows],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _ref_parse_token(tok: str):
    if tok == "true":
        return True
    if tok == "false":
        return False
    if tok == "undefined":
        return None
    try:
        return float(tok)
    except ValueError:
        return tok


def _ref_read_csv(text: str):
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise ValueError("empty document")
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != len(columns):
            raise ValueError(f"row width {len(toks)} != header width {len(columns)}")
        rows.append({c: _ref_parse_token(t) for c, t in zip(columns, toks)})
    return columns, rows


_SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e308, -1e308, sys.float_info.max, 0.1, 1.0, 1e16, 123456789.0,
]


def _random_float(rng: random.Random) -> float:
    if rng.random() < 0.2:
        return rng.choice(_SPECIAL_FLOATS)
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def _random_int(rng: random.Random) -> int:
    big = rng.randrange(-(10**30), 10**30)
    return rng.choice([0, -1, 2**63, -(2**63) - 1, 2**70 + 3, big])


def _random_other(rng: random.Random):
    return rng.choice([
        True, False, None, "text", "",
        np.float64(_random_float(rng)), np.int64(rng.randrange(-2**63, 2**63)),
        np.float32(1.5), _random_float(rng), _random_int(rng),
    ])


_COLUMN_KINDS = {
    "float": _random_float,
    "int": _random_int,
    "bool": lambda rng: rng.random() < 0.5,
    "none": lambda rng: None,
    "str": lambda rng: rng.choice(["a", "b c", "undefined", "1e5"]),
    "np.float64": lambda rng: np.float64(_random_float(rng)),
    "np.int64": lambda rng: np.int64(rng.randrange(-2**63, 2**63)),
    "mixed": _random_other,
}


def _random_table(rng: random.Random):
    kinds = [rng.choice(list(_COLUMN_KINDS)) for _ in range(rng.randint(1, 6))]
    columns = [f"c{j}_{k}" for j, k in enumerate(kinds)]
    make = tuple if rng.random() < 0.5 else list
    n_rows = rng.choice([0, 1, 2, 50])
    rows = [make(_COLUMN_KINDS[k](rng) for k in kinds) for _ in range(n_rows)]
    return columns, rows


def _same(a, b) -> bool:
    """Equality of parsed documents that tells nan from nan and -0.0 from 0.0."""

    def key(doc):
        columns, rows = doc
        return columns, [[(c, type(v), repr(v)) for c, v in r.items()] for r in rows]

    return key(a) == key(b)


def test_render_csv_equals_per_value_renderer():
    rng = random.Random(20240501)
    for _ in range(400):
        columns, rows = _random_table(rng)
        assert render_csv(columns, rows) == _ref_render_csv(columns, rows)


def test_render_csv_float_and_int_columns_equal_per_value_renderer():
    rng = random.Random(7)
    rows = [(_random_float(rng), _random_int(rng)) for _ in range(20000)]
    rows += [(v, 0) for v in _SPECIAL_FLOATS]
    assert render_csv(["x", "n"], rows) == _ref_render_csv(["x", "n"], rows)


def test_render_csv_rejects_a_row_of_another_width():
    with pytest.raises(ValueError, match="header width 2"):
        render_csv(["a", "b"], [(1.0, 2.0), (3.0,)])


def test_render_json_equals_per_value_renderer():
    rng = random.Random(11)
    config = {"preset": "X", "a": np.float64(0.5), "n": np.int64(3), "b": 1.25}
    for _ in range(200):
        columns, rows = _random_table(rng)
        got = render_json("simulate", config, columns, rows)
        assert got == _ref_render_json("simulate", config, columns, rows)


def test_read_csv_document_equals_per_token_parser():
    rng = random.Random(3)
    for _ in range(400):
        columns, rows = _random_table(rng)
        text = _ref_render_csv(columns, rows)
        assert _same(read_csv_document(text), _ref_read_csv(text))


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,2\n3,undefined\n4,5\n",  # numeric first row, sentinel later
        "a,b\ntrue,1\n2,3\nfalse,nan\n",  # first row not numeric
        "a,b\n-0,inf\n1e308,5e-324\n2,word\n-inf,true\n",
        "N,rate\n0,1.5\n1,undefined\n2,0.25\n",
        "a\n\n1\n\n\n-0\n",  # empty lines are skipped
        "only,header\n",
    ],
)
def test_read_csv_document_special_documents(text):
    assert _same(read_csv_document(text), _ref_read_csv(text))


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,2\n3\n",  # width error while rows are read as numbers
        "a,b\ntrue,2\n3,4,5\n",  # and after a non-numeric row
        "a,b\n1,2,3\n",
    ],
)
def test_read_csv_document_row_width_error_keeps_its_message(text):
    with pytest.raises(ValueError) as got:
        read_csv_document(text)
    with pytest.raises(ValueError) as want:
        _ref_read_csv(text)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("row width ")
