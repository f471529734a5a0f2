"""Spans around the calls ``duffinglab.cli`` makes into each package module.

The program is not edited: ``install`` swaps the names ``duffinglab.cli``
imported (and its own ``main``, renderers and parser) for wrappers that
record a span per call, and ``uninstall`` puts the originals back.  Spans stay
in memory until ``write`` saves them as JSON lines.

``dynamics`` has no span: the CLI reaches it only through closures bound
inside ``integrators``, ``analysis`` and ``bifurcation``, so its cost is part
of their per-step times.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict


def _steps(t0, t_max, h) -> int:
    return int(math.floor((t_max - t0) / h + 0.5))


def _sweep_counts(a, result):
    cfg = a["cfg"]
    lanes = int(cfg.n_samples)
    return {
        "lanes": lanes,
        "lane_steps": lanes * _steps(cfg.s0.t, cfg.t_max, cfg.h),
        "diverged_lanes": sum(1 for r in result if r.diverged),
    }


def _integrate_counts(a, result):
    cfg = a["cfg"]
    steps = cfg.n_steps
    return {
        "steps": steps,
        "rhs_evals": steps * (4 if cfg.method.value == "RK4" else 1),
        "samples": len(result.samples),
    }


def _lyapunov_counts(a, result):
    cfg = a["cfg"]
    return {"tangent_steps": _steps(0.0, cfg.t_total, cfg.h), "renorm_count": result.renorm_count}


def _render_counts(a, result):
    return {"rows": len(a["rows"]), "bytes": len(result.encode())}


# name in duffinglab.cli -> (layer, counts(bound arguments, result) or None)
TRACED = {
    "main": ("cli", None),
    "render_csv": ("cli", _render_counts),
    "render_json": ("cli", _render_counts),
    "read_csv_document": ("cli", lambda a, r: {"parse_rows": len(r[1])}),
    "sweep_omega": ("bifurcation", _sweep_counts),
    "preset": ("bifurcation", None),
    "integrate": ("integrators", _integrate_counts),
    "iterate_fd_duffing": ("integrators", lambda a, r: {"fd_steps": int(a["n"]) - 1}),
    "lyapunov_spectrum": ("analysis", _lyapunov_counts),
    "convergence_rate": ("analysis", None),
    "picard_solve": ("approx", lambda a, r: {"point_passes": len(a["grid"]) * int(a["k"])}),
    "homotopy_approx": ("approx", None),
}
LAYERS = ("cli", "bifurcation", "integrators", "analysis", "approx")

# Unit of every per-layer metric ``pass_metrics`` and the traced run report;
# BENCHMARK.json lists the same names.  The work counts (WORK_COUNTS) are not
# among them: they define the workload and must not change, so the runner
# checks them for equality instead of ranking them.
LAYER_UNITS = {
    "bifurcation.sweep_s": "s",
    "bifurcation.lane_step_ns": "ns",
    "integrators.integrate_s": "s",
    "integrators.step_us": "us",
    "integrators.fd_s": "s",
    "integrators.fd_step_ns": "ns",
    "analysis.lyapunov_s": "s",
    "analysis.tangent_step_us": "us",
    "approx.picard_s": "s",
    "approx.picard_point_ns": "ns",
    "approx.homotopy_s": "s",
    "cli.render_s": "s",
    "cli.render_rows_per_s": "rows/s",
    "cli.bytes": "bytes",
    "cli.parse_s": "s",
    "cli.parse_rows_per_s": "rows/s",
    "cli.resolve_s": "s",
    "trace.self_sum_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
WORK_COUNTS = (
    "bifurcation.lanes",
    "bifurcation.lane_steps",
    "bifurcation.diverged_lanes",
    "integrators.steps",
    "integrators.rhs_evals",
    "integrators.samples",
    "analysis.renorm_count",
    "cli.rows",
)


class Tracer:
    """Records spans: id, parent, job, pass, layer, name, start, end, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._originals: dict = {}
        self.job = None
        self.pass_no = 0
        self._t0 = time.perf_counter_ns()

    def _wrap(self, name, layer, fn, counts):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "job": self.job,
                "pass": self.pass_no,
                "layer": layer,
                "name": name,
                "counts": {},
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start_ns"] = time.perf_counter_ns() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns() - self._t0
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, cli_module) -> None:
        for name, (layer, counts) in TRACED.items():
            fn = getattr(cli_module, name)
            self._originals[name] = fn
            setattr(cli_module, name, self._wrap(name, layer, fn, counts))

    def uninstall(self, cli_module) -> None:
        for name, fn in self._originals.items():
            setattr(cli_module, name, fn)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover (s)."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - child[s["id"]]) * 1e-9 for s in spans]


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def pass_metrics(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per-layer metrics of the spans of one pass, its work counts, and self
    time per layer."""
    dur = defaultdict(float)
    cnt = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    main_self = 0.0
    for s, own in zip(spans, self_times(spans)):
        dur[s["name"]] += (s["end_ns"] - s["start_ns"]) * 1e-9
        for k, v in s["counts"].items():
            cnt[k] += v
        layer_self[s["layer"]] += own
        if s["name"] == "main":
            main_self += own
    render_s = dur["render_csv"] + dur["render_json"]
    m = {
        "bifurcation.sweep_s": dur["sweep_omega"],
        "bifurcation.lane_step_ns": _ratio(dur["sweep_omega"], cnt["lane_steps"], 1e9),
        "integrators.integrate_s": dur["integrate"],
        "integrators.step_us": _ratio(dur["integrate"], cnt["steps"], 1e6),
        "integrators.fd_s": dur["iterate_fd_duffing"],
        "integrators.fd_step_ns": _ratio(dur["iterate_fd_duffing"], cnt["fd_steps"], 1e9),
        "analysis.lyapunov_s": dur["lyapunov_spectrum"],
        "analysis.tangent_step_us": _ratio(dur["lyapunov_spectrum"], cnt["tangent_steps"], 1e6),
        "approx.picard_s": dur["picard_solve"],
        "approx.picard_point_ns": _ratio(dur["picard_solve"], cnt["point_passes"], 1e9),
        "approx.homotopy_s": dur["homotopy_approx"],
        "cli.render_s": render_s,
        "cli.render_rows_per_s": _ratio(cnt["rows"], render_s),
        "cli.bytes": cnt["bytes"],
        "cli.parse_s": dur["read_csv_document"],
        "cli.parse_rows_per_s": _ratio(cnt["parse_rows"], dur["read_csv_document"]),
        "cli.resolve_s": main_self,
        "trace.self_sum_s": sum(layer_self.values()),
    }
    counts = {name: cnt[name.split(".", 1)[1]] for name in WORK_COUNTS}
    return m, counts, layer_self
