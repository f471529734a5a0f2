"""Self-tests of the benchmark: ``python -m pytest perfbench`` from the root."""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

cli = run.load_program()

import checks  # noqa: E402  (needs the program on sys.path)
import jobs  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402
from tracing import WORK_COUNTS  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.1"]


@pytest.fixture
def tiny(monkeypatch):
    """Run the workloads at 1% of their horizons and row counts."""
    monkeypatch.setattr(run, "make_jobs", functools.partial(jobs.make_jobs, scale=0.01))


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload_prints_the_declared_metrics(capsys, tiny, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = _result(capsys, ["--workload", workload, "--seed", "7", "--trace", str(trace), *TINY])
        assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_benchmark_json_declares_the_workloads_and_units():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS


def test_work_counts_are_not_ranked_metrics():
    assert not set(WORK_COUNTS) & {m["name"] for m in BENCH["per_layer"]}


def _traced_counts(capsys, workload, seed):
    _result(capsys, ["--workload", workload, "--seed", str(seed), "--trace", "1", *TINY])
    saved = json.loads((run.OUT / f"result-{workload}-seed{seed}-trace1.json").read_text())
    assert sorted(saved["work_counts"]) == sorted(WORK_COUNTS)
    return saved["work_counts"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_values_not_work(capsys, tiny, workload):
    a, b = make_jobs(workload, 1), make_jobs(workload, 2)
    assert [j.work for j in a] == [j.work for j in b]
    assert [j.argv for j in a] != [j.argv for j in b]
    counts = _traced_counts(capsys, workload, 1)
    assert counts == _traced_counts(capsys, workload, 2)
    key = "bifurcation.lane_steps" if workload != "trajectory" else "integrators.steps"
    assert counts[key] > 0 and counts["cli.rows"] > 0


def _flip_digit(text: str, line: int, column: int) -> str:
    """Change the first digit of one CSV cell to another digit."""
    lines = text.split("\n")
    cells = lines[line].split(",")
    m = re.search(r"[1-9]", cells[column])
    d = cells[column][m.start()]
    cells[column] = cells[column][: m.start()] + ("1" if d != "1" else "2") + cells[column][m.end():]
    lines[line] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "workload, job_index, line, column",
    [
        ("sweep", 0, 10, 0),  # omega grid
        ("sweep", 1, 3, 1),  # a terminal state: breaks conservation
        ("trajectory", 0, 5, 1),  # ECO_DYN_1 x: breaks the p - beta*q drift bound
        ("trajectory", 5, 7, 1),  # FD displacement: breaks the recurrence
    ],
)
def test_one_flipped_digit_is_a_failed_op(monkeypatch, workload, job_index, line, column):
    job = make_jobs(workload, 3, scale=0.01)[job_index]
    original = cli.main

    def corrupting_main(argv):
        code = original(argv)
        out = argv[argv.index("--out") + 1]
        with open(out) as fh:
            text = fh.read()
        with open(out, "w") as fh:
            fh.write(_flip_digit(text, line, column))
        return code

    rec = run.Record()
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.run_job(cli, job, rec, {}, None)
    assert (rec.attempted, rec.failed) == (1, 0), rec.failures
    monkeypatch.setattr(cli, "main", corrupting_main)
    run.run_job(cli, job, rec, {}, None)
    assert (rec.attempted, rec.failed) == (2, 1)


def test_nonzero_exit_is_a_failed_op():
    # Picard on the chaos preset diverges over a long horizon and exits 2.
    job = make_jobs("trajectory", 3, scale=0.01)[6]
    diverging = type(job)(job.name, job.command,
                          (*job.argv, "--t-max", "100", "--h", "0.01"), job.fmt, job.expect)
    rec = run.Record()
    run.run_job(cli, diverging, rec, {}, None)
    assert rec.failed == 1 and "exit 2" in rec.failures[0]


def test_sweep_checks_catch_a_lost_round_trip():
    job = make_jobs("sweep", 4, scale=0.01)[2]
    out = run.OUT / "roundtrip.csv"
    run.OUT.mkdir(parents=True, exist_ok=True)
    assert cli.main([*job.argv, "--out", str(out)]) == 0
    text = out.read_text()
    out.unlink()
    assert checks.check(job, text, cli.read_csv_document(text), {}) == []
    # Same values, different spelling: parses identically, must not round-trip.
    respelled = text.replace("e-", "e-0", 1)
    assert respelled != text
    assert checks.check(job, respelled, cli.read_csv_document(respelled), {})


def test_exits_nonzero_without_the_program():
    tmp_path = run.OUT / "bare"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
