import json
import math

import pytest

from duffinglab.cli import (
    RunManifest,
    main,
    read_csv_document,
    run,
    sweep_records_from_csv,
)


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
    ],
)
def test_non_finite_input_is_usage_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
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


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


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
