#!/usr/bin/env python3
"""Does the short sweep horizon stand in for the preset's 1e4 horizon?

    python3 perfbench/horizon_check.py --workload sweep --seed 1 --seconds 120

Alternates passes of a sweep workload at its own horizon and at twice it,
with the same seeded inputs, and compares lane-steps per second (in
reference-speed seconds, as ``run.py`` reports times).  The cost per
lane-step must not depend on the horizon: the check passes when the two
rates differ by no more than the ``wall_s`` bound in BENCHMARK.json.  Exits
0 on a pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import run
from jobs import make_jobs


def lane_steps_per_s(jobs, rec: run.Record) -> float:
    seconds = sum(
        statistics.median(t * f for t, f in zip(rec.job_s[j.name], rec.speed[j.name]))
        for j in jobs
    )
    return sum(j.work["lane_steps"] for j in jobs) / seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sweep", "sweep_wide"), default="sweep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=120.0)
    args = ap.parse_args(argv)
    os.environ.pop("DUFFING_LAB_THREADS", None)
    cli = run.load_program()
    bound = next(m["bound"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())
                 ["end_to_end"] if m["name"] == "wall_s")
    run.OUT.mkdir(parents=True, exist_ok=True)
    for _ in range(5):
        run.calibrate()

    sides = {scale: (make_jobs(args.workload, args.seed, scale), run.Record()) for scale in (1.0, 2.0)}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or sides[2.0][1].passes < 2:
        for jobs, rec in sides.values():
            for job in jobs:
                run.run_job(cli, job, rec, {}, None)
            rec.passes += 1

    rates = {scale: lane_steps_per_s(jobs, rec) for scale, (jobs, rec) in sides.items()}
    change = rates[2.0] / rates[1.0] - 1.0
    failures = [f for _, rec in sides.values() for f in rec.failures]
    ok = abs(change) <= bound and not failures
    for scale, (jobs, rec) in sides.items():
        print(f"horizon x{scale:g}: {rates[scale]:.6g} lane-steps/s "
              f"({sum(j.work['lane_steps'] for j in jobs)} per pass, {rec.passes} passes)")
    print(f"change at twice the horizon: {change:+.2%} (bound {bound:.0%}): {'PASS' if ok else 'FAIL'}")
    for f in failures:
        print(f"FAILED {f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
