#!/usr/bin/env python3
"""duffinglab benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  A single closed-loop client runs the
workload's ``duffing-lab`` jobs in this process through
``duffinglab.cli.main(argv)``, one after another, each writing its document
with ``--out``; it repeats the job list (a "pass") until ``--seconds`` is
spent, checks every document, and prints a report whose last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` spends half the time untraced and half traced, reports the
per-layer metrics and writes the spans to ``perfbench/_out/``.

Exits 2 without a result when the checkout has no ``src/duffinglab``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from jobs import WORKLOADS, make_jobs
from tracing import LAYER_UNITS, Tracer, pass_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
SETUP_RUNS = 5
# setup_s is reported at the reference speed of starting numpy: each sample is
# divided by the time of a ``python -c "import numpy"`` started next to it
# (mean of the one before and the one after) and multiplied by SETUP_REF_S.
# Importing numpy is about 70% of importing duffinglab.cli.  Start-up does not
# follow the calibration kernel below, nor a bare ``python -c pass``: between
# speed phases of a shared VM the ratio to a bare start moved by 30%, the
# ratio to a numpy start by 7%.
SETUP_REF_S = 0.15
# Untraced runs parse each CSV document repeatedly until this much parse
# time or this many reads, so the millisecond reads of the sweep documents
# give a steady median; traced runs parse once, as the workload does.
READ_BUDGET_S = 0.05
MAX_READS = 50

# Shared cloud machines run in speed phases.  On a 2-vCPU VM (Intel Xeon,
# 2.1 GHz) a fixed CPU kernel took 20-40% longer for tens of seconds at a
# time, and the quartile spread of raw wall_s over 40 s trajectory runs was
# 20-25%, more than any bound worth gating on.  Every timed sample is
# therefore paired with calibrations measured around it and the gated times
# are given in reference-speed seconds,
#     raw seconds * CAL_REF_S / calibration seconds,
# i.e. what the sample would take on a machine where the kernel takes
# CAL_REF_S.  Raw seconds are printed and kept in the result file too.
CAL_REF_S = 0.003
_CAL_ARRAY = np.linspace(0.0, 1.0, 4096)

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "load_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``duffinglab.cli`` from this checkout's ``src``, nowhere else."""
    pkg = SRC / "duffinglab"
    if not (pkg / "cli.py").is_file():
        raise ProgramMissing(f"no program source at {pkg.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import duffinglab
    import duffinglab.cli

    if Path(duffinglab.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"duffinglab imported from {duffinglab.__file__}, not {pkg}")
    return duffinglab.cli


def calibrate() -> float:
    """Reference-speed factor: CAL_REF_S over the median of five runs of a
    fixed kernel (a Python float loop and small numpy ufunc calls, the two
    kinds of work the program does)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0.0
        for i in range(40000):
            x += i * 0.5
        a = _CAL_ARRAY
        for _ in range(40):
            a = np.cos(a)
        times.append(time.perf_counter() - t0)
    return CAL_REF_S / statistics.median(times)


def _start(env: dict, code: str) -> float:
    """Seconds to run ``python -c code`` in a fresh interpreter.  The wait
    blocks (no timeout): a timed wait polls in steps of up to 50 ms, which
    would quantize the measurement."""
    t0 = time.perf_counter()
    status = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env).wait()
    if status != 0:
        raise ProgramMissing(f"python -c {code!r} exited {status}")
    return time.perf_counter() - t0


def measure_setup(env: dict, runs: int) -> list[tuple[float, float]]:
    """Fresh interpreter plus ``import duffinglab.cli``, as every CLI call
    pays, with a numpy start-up on either side: (setup seconds, numpy
    start-up seconds)."""
    samples = []
    before = _start(env, "import numpy")
    for _ in range(runs):
        setup = _start(env, "import duffinglab.cli")
        after = _start(env, "import numpy")
        samples.append((setup, 0.5 * (before + after)))
        before = after
    return samples


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    from duffinglab import bifurcation

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "duffinglab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    # The seed's sweep runs chunks on a thread pool sized by _worker_count();
    # record what it resolves to with DUFFING_LAB_THREADS removed.
    worker_count = getattr(bifurcation, "_worker_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "sweep_workers": worker_count() if callable(worker_count) else "no thread pool",
        "loadavg_before": os.getloadavg(),
    }


class Record:
    """What one series of passes measured."""

    def __init__(self):
        self.job_s = defaultdict(list)  # raw seconds per job name
        self.load_s = defaultdict(list)
        self.speed = defaultdict(list)  # calibration factor per job sample
        self.read_speed = defaultdict(list)  # and per read-back sample
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sha256: dict[str, str] = {}
        self.passes = 0
        self.layer_passes: list[dict] = []
        self.layer_counts: list[dict] = []
        self.layer_self: list[dict] = []


def run_job(cli, job, rec: Record, context: dict, tracer) -> None:
    """Run one job, time it, read its document back and check it."""
    from checks import check  # imports duffinglab.cli, so only after load_program()

    out = OUT / f"{job.name}.{job.fmt}"
    argv = [*job.argv, "--out", str(out)]
    rec.attempted += 1
    if tracer is not None:
        tracer.job = job.name
    speed = calibrate()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse rejects the argv
        code = e.code
    except Exception:
        traceback.print_exc()
        code = "traceback"
    rec.job_s[job.name].append(time.perf_counter() - t0)
    # Calibrations on either side bracket the speed phase the job ran in.
    between = calibrate()
    rec.speed[job.name].append(0.5 * (speed + between))
    if code != 0:
        rec.failed += 1
        rec.failures.append(f"{job.name}: exit {code}")
        out.unlink(missing_ok=True)
        return
    text = out.read_text()
    out.unlink()
    problems = []
    parsed = None
    if job.fmt == "csv":
        reads = []
        while True:
            t0 = time.perf_counter()
            try:
                parsed = cli.read_csv_document(text)
            except ValueError as e:
                problems.append(f"unreadable CSV: {e}")
                break
            finally:
                reads.append(time.perf_counter() - t0)
            if tracer is not None or sum(reads) >= READ_BUDGET_S or len(reads) >= MAX_READS:
                break
        rec.load_s[job.name].append(statistics.median(reads))
        rec.read_speed[job.name].append(0.5 * (between + calibrate()))
    if not problems:
        problems = check(job, text, parsed, context)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if rec.sha256.setdefault(job.name, digest) != digest:
        problems.append("document differs from the first pass with the same argv")
    if problems:
        rec.failed += 1
        rec.failures.extend(f"{job.name}: {p}" for p in problems)


def run_passes(cli, jobs, budget_s: float, tracer=None, max_passes=None) -> Record:
    """Closed loop: repeat the job list while another whole pass fits the budget."""
    rec = Record()
    start = time.perf_counter()
    pass_s = []
    while True:
        t0 = time.perf_counter()
        context: dict = {}
        first_span = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.pass_no = rec.passes
        for job in jobs:
            run_job(cli, job, rec, context, tracer)
        rec.passes += 1
        if tracer is not None:
            metrics, counts, layer_self = pass_metrics(tracer.spans[first_span:])
            rec.layer_passes.append(metrics)
            rec.layer_counts.append(counts)
            rec.layer_self.append(layer_self)
        pass_s.append(time.perf_counter() - t0)
        if max_passes is not None and rec.passes >= max_passes:
            break
        if time.perf_counter() - start + statistics.median(pass_s) > budget_s:
            break
    return rec


def wall_and_load(rec: Record, reference: bool) -> tuple[float, float]:
    """One pass, from per-job medians: (jobs plus read-back, read-back alone),
    in reference-speed seconds or raw seconds."""

    def med(samples: dict, speed: dict) -> float:
        return sum(
            statistics.median([t * f for t, f in zip(v, speed[name])] if reference else v)
            for name, v in samples.items()
        )

    load = med(rec.load_s, rec.read_speed)
    return med(rec.job_s, rec.speed) + load, load


def pass_totals(rec: Record) -> tuple[list[float], list[float]] | None:
    """Reference-speed (wall, load) of each pass, or None when a failed job
    left a pass without some of its samples."""

    def per_pass(samples: dict, speed: dict):
        series = [[t * f for t, f in zip(v, speed[name])] for name, v in samples.items()]
        if any(len(v) != rec.passes for v in series):
            return None
        return [sum(v[i] for v in series) for i in range(rec.passes)]

    jobs, loads = per_pass(rec.job_s, rec.speed), per_pass(rec.load_s, rec.read_speed)
    if jobs is None or loads is None:
        return None
    return [j + r for j, r in zip(jobs, loads)], loads


def tail(samples: list[float], unit: str = "s") -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} {unit}, n={n}"
    pct = int(100 * (1 - 10 / n)) if n > 10 else 0
    if pct > 50:
        q = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
        text += f", p{pct} {q:.6g} {unit}"
    else:
        text += " (too few samples for a tail percentile with ten beyond it)"
    return text


def command_report(jobs, rec: Record) -> list[str]:
    """Per-command time in reference-speed seconds (informational: each
    command runs on one workload only, so it cannot be a gated metric)."""
    lines = []
    by_cmd = defaultdict(list)
    for job in jobs:
        by_cmd[job.command].append(job)

    for cmd, cmd_jobs in by_cmd.items():
        per_pass = [
            sum(rec.job_s[j.name][i] * rec.speed[j.name][i] for j in cmd_jobs)
            for i in range(rec.passes)
        ]
        lines.append(f"info {cmd}_s: {tail(per_pass)} (per pass, {len(cmd_jobs)} job(s))")
        if cmd == "bifurcate":
            lane_steps = sum(j.work["lane_steps"] for j in cmd_jobs)
            lines.append(
                f"info lane_steps_per_s: {lane_steps / statistics.median(per_pass):.6g} 1/s "
                f"({lane_steps} lane-steps per pass)"
            )
    reads = [t * f for name, v in rec.load_s.items() for t, f in zip(v, rec.read_speed[name])]
    if reads:
        lines.append(f"info read_csv_document per document: {tail(reads)}")
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="one pass of BIF_CASE_1 at its preset 1e4 horizon (sweep only; ungated)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    os.environ.pop("DUFFING_LAB_THREADS", None)
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot load duffinglab: {e}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    jobs = make_jobs(args.workload, args.seed, full=args.full)
    max_passes = 1 if args.full else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"workload {args.workload} seed {args.seed} full {args.full}: "
             f"{len(jobs)} job(s) per pass, closed loop, 1 client"]

    for _ in range(5):  # the first kernel runs of a process read slow
        calibrate()
    setup: list[tuple[float, float]] = []
    counts: dict = {}
    spread: dict[str, str] = {}
    if args.trace:
        budget = args.seconds - (time.perf_counter() - start)
        plain = run_passes(cli, jobs, budget / 2, max_passes=max_passes)
        tracer = Tracer()
        tracer.install(cli)
        try:
            rec = run_passes(cli, jobs, budget / 2, tracer, max_passes)
        finally:
            tracer.uninstall(cli)
        spans_path = OUT / f"spans-{tag}.jsonl"
        tracer.write(spans_path)
        metrics = {k: statistics.median(p[k] for p in rec.layer_passes) for k in rec.layer_passes[0]}
        spread = dict.fromkeys(metrics, f"median of {rec.passes} traced pass(es)")
        # The work counts define the workload: every pass must repeat them.
        counts = rec.layer_counts[0]
        for i, other in enumerate(rec.layer_counts[1:], 1):
            if other != counts:
                rec.failed += 1
                rec.failures.append(f"traced pass {i}: work counts {other} differ from pass 0 {counts}")
        # trace.wall_s is raw, like the spans it is compared with; the
        # overhead compares the two halves at reference speed.
        traced_wall, _ = wall_and_load(rec, reference=False)
        metrics["trace.wall_s"] = traced_wall
        spread["trace.wall_s"] = "sum of per-job medians over the traced passes"
        metrics["trace.overhead_s"] = (wall_and_load(rec, reference=True)[0]
                                       - wall_and_load(plain, reference=True)[0])
        spread["trace.overhead_s"] = "traced minus untraced wall, reference seconds"
        failures = plain.failures + rec.failures
        attempted = plain.attempted + rec.attempted
        failed = plain.failed + rec.failed
        lines.append(f"passes: {plain.passes} untraced, {rec.passes} traced; spans in "
                     f"{spans_path.relative_to(ROOT)}")
        for layer in rec.layer_self[0]:
            own = statistics.median(s[layer] for s in rec.layer_self)
            lines.append(f"self {layer}: {own:.6g} s per pass")
        lines.append(f"self sum {metrics['trace.self_sum_s']:.6g} s of traced wall "
                     f"{traced_wall:.6g} s ({metrics['trace.self_sum_s'] / traced_wall:.1%})")
        units = LAYER_UNITS
    else:
        setup_env = {k: v for k, v in os.environ.items() if k != "DUFFING_LAB_THREADS"}
        setup_env["PYTHONPATH"] = str(SRC)
        setup = measure_setup(setup_env, SETUP_RUNS)
        rec = run_passes(cli, jobs, args.seconds - (time.perf_counter() - start), max_passes=max_passes)
        wall, load = wall_and_load(rec, reference=True)
        raw_wall, raw_load = wall_and_load(rec, reference=False)
        setup_ref = [t / ref * SETUP_REF_S for t, ref in setup]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_ref),
            "load_s": load,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        totals = pass_totals(rec)
        for k, what, i in (("wall_s", "job", 0), ("load_s", "document", 1)):
            per_pass = "a job failed, so no per-pass samples" if totals is None else tail(totals[i])
            spread[k] = f"sum of per-{what} medians; per pass: {per_pass}"
        spread["setup_s"] = tail(setup_ref)
        spread["peak_rss_mb"] = "one reading, the process's peak, n=1"
        failures, attempted, failed = rec.failures, rec.attempted, rec.failed
        lines.append(f"passes: {rec.passes}; setup runs (s, numpy start s) "
                     f"{', '.join(f'{t:.4f}/{ref:.4f}' for t, ref in setup)}")
        speeds = [f for v in rec.speed.values() for f in v]
        lines.append(f"info speed factor: median {statistics.median(speeds):.4f}, "
                     f"min {min(speeds):.4f}, max {max(speeds):.4f} (reference kernel {CAL_REF_S} s)")
        lines.append(f"info raw wall_s: {raw_wall:.6g} s, raw load_s: {raw_load:.6g} s, "
                     f"raw setup_s: {statistics.median(t for t, _ in setup):.6g} s")
        lines.extend(command_report(jobs, rec))
        units = E2E_UNITS

    env["loadavg_after"] = os.getloadavg()
    lines.extend(f"env {k}: {v}" for k, v in env.items())
    lines.extend(f"sha256 {name}: {digest}" for name, digest in rec.sha256.items())
    lines.extend(f"FAILED {f}" for f in failures)
    lines.extend(f"count {k} = {v}" for k, v in counts.items())
    lines.extend(f"metric {k} = {v:.6g} {units[k]} ({spread[k]})" for k, v in metrics.items())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "sha256": rec.sha256, "failures": failures, "work_counts": counts,
                    "samples": {"job_s": rec.job_s, "load_s": rec.load_s,
                                "speed": rec.speed, "read_speed": rec.read_speed,
                                "setup_s": setup},
                    **result},
                   indent=1, sort_keys=True) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
