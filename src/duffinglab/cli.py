"""Command-line front end.

Runs simulations, analyses and frequency sweeps from named presets or a
config file, and serializes the results as CSV or JSON plot data.

CSV schemas by command (headers are exact):

    simulate, picard  t,x,v
    fd                n,x
    homotopy          t,x_primary,x_correction,x_total
    compare           t,x_rk4,x_picard,abs_diff   (x_homotopy with --with homotopy)
    lyapunov          lambda1,lambda2,sum_residual,renorm_count,paper_reported_lambda1,paper_reported_lambda2
    bifurcate         omega,x_final,y_final,conservation_residual,diverged
    rates             N,error_N,error_N1,rate
    presets           preset,field,value

JSON output is one object {"command": ..., "config": {...}, "rows": [...]}
with rows mirroring the CSV columns.  Floats serialize with 17 significant
digits in CSV so every emitted document round-trips exactly; undefined
convergence rates serialize as the token ``undefined`` (CSV) or null (JSON).

Exit status: 0 success, 1 usage error, 2 numerical abort (overflow), with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .analysis import (
    COMPARISON_FIXTURE,
    LyapunovConfig,
    convergence_rate,
    lyapunov_spectrum,
)
from .approx import DEFAULT_HOMOTOPY, HomotopyApprox, homotopy_approx, picard_solve
from .bifurcation import (
    PRESET_IDS,
    DynamicsPreset,
    FdPreset,
    SweepConfig,
    preset,
    sweep_omega,
)
from .dynamics import ModelKind, ModelSpec, State
from .integrators import IntegrationConfig, Method, integrate, iterate_fd_duffing

__all__ = ["RunManifest", "run", "main", "read_csv_document", "sweep_records_from_csv"]

COMMANDS = (
    "simulate",
    "fd",
    "homotopy",
    "picard",
    "compare",
    "lyapunov",
    "bifurcate",
    "rates",
    "presets",
)

_CSV_COLUMNS = {
    "simulate": ["t", "x", "v"],
    "picard": ["t", "x", "v"],
    "fd": ["n", "x"],
    "homotopy": ["t", "x_primary", "x_correction", "x_total"],
    "lyapunov": [
        "lambda1",
        "lambda2",
        "sum_residual",
        "renorm_count",
        "paper_reported_lambda1",
        "paper_reported_lambda2",
    ],
    "bifurcate": ["omega", "x_final", "y_final", "conservation_residual", "diverged"],
    "rates": ["N", "error_N", "error_N1", "rate"],
    "presets": ["preset", "field", "value"],
}


class UsageError(ValueError):
    pass


@dataclass
class RunManifest:
    """A fully described invocation: command, preset, overrides and output."""

    command: str
    preset: str | None = None
    overrides: dict[str, float] = field(default_factory=dict)
    output_path: str = "-"
    format: str = "csv"
    compare_with: str = "picard"
    method: str | None = None


# -- value formatting ---------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _parse_token(tok: str):
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


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


# A column whose values all have one of these exact types is rendered with a
# single %-directive: '%.17g' % v == format(v, '.17g') for every float and
# '%d' % n == str(n) for every int.  Other columns (bool, None, str, numpy
# scalars, mixed types) go through _fmt value by value.
_COLUMN_FORMATS = {float: "%.17g", int: "%d"}
# Types json encodes as they are; any other row value goes through _jsonable.
_JSON_NATIVE = frozenset({float, int, bool, str, type(None)})


def render_csv(columns: list[str], rows: list[list]) -> str:
    """Render rows under a header, one line per row, every row formatted by
    one %-format built from the types found in each column."""
    width = len(columns)
    if set(map(len, rows)) - {width}:
        raise ValueError(f"every row must have the header width {width}")
    formats, by_value = [], []
    for j in range(width):
        types = set(map(type, map(itemgetter(j), rows)))
        fmt = _COLUMN_FORMATS.get(types.pop()) if len(types) == 1 else None
        if fmt is None:
            fmt = "%s"
            by_value.append(j)
        formats.append(fmt)

    def cells(row) -> tuple:
        row = list(row)
        for j in by_value:
            row[j] = _fmt(row[j])
        return tuple(row)

    row_format = ",".join(formats)
    lines = [",".join(columns)]
    lines.extend(map(row_format.__mod__, map(cells if by_value else tuple, rows)))
    lines.append("")
    return "\n".join(lines)


def render_json(command: str, config: dict, columns: list[str], rows: list[list]) -> str:
    if set(map(type, chain.from_iterable(rows))) <= _JSON_NATIVE:
        records = [dict(zip(columns, row)) for row in rows]
    else:
        records = [{c: _jsonable(v) for c, v in zip(columns, row)} for row in rows]
    doc = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "rows": records,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def read_csv_document(text: str) -> tuple[list[str], list[dict]]:
    """Parse a CSV document emitted by this tool back into typed rows.

    Rows are read as all-float until a row holds a token ``float`` rejects
    (``true``, ``false``, ``undefined`` or text); from that row on every
    token goes through ``_parse_token``, which gives the same value for
    every token ``float`` accepts.
    """
    lines = list(filter(None, text.split("\n")))
    if not lines:
        raise ValueError("empty document")
    columns = lines[0].split(",")
    width = len(columns)
    rows = []
    numeric = True
    for ln in islice(lines, 1, None):
        toks = ln.split(",")
        if len(toks) != width:
            raise ValueError(f"row width {len(toks)} != header width {width}")
        if numeric:
            try:
                rows.append(dict(zip(columns, map(float, toks))))
                continue
            except ValueError:
                numeric = False
        rows.append({c: _parse_token(t) for c, t in zip(columns, toks)})
    return columns, rows


def sweep_records_from_csv(text: str):
    """Rebuild SweepRecord values from a bifurcate CSV document."""
    from .bifurcation import SweepRecord

    columns, rows = read_csv_document(text)
    if columns != _CSV_COLUMNS["bifurcate"]:
        raise ValueError(f"not a bifurcate document: header {columns}")
    return [
        SweepRecord(
            omega=r["omega"],
            x_final=r["x_final"],
            y_final=r["y_final"],
            conservation_residual=r["conservation_residual"],
            diverged=r["diverged"],
        )
        for r in rows
    ]


# -- resolved configuration maps ----------------------------------------------

_MODEL_FIELDS = ("delta", "alpha", "beta", "gamma", "omega", "lambda_h", "coupling_a")


def _model_map(m: ModelSpec) -> dict:
    out = {"model.kind": m.kind.value}
    for f in _MODEL_FIELDS:
        out[f"model.{f}"] = getattr(m, f)
    return out


def _build_model(cfg: dict) -> ModelSpec:
    return ModelSpec(
        kind=ModelKind(cfg["model.kind"]),
        **{f: cfg[f"model.{f}"] for f in _MODEL_FIELDS},
    )


def _s0_map(s: State) -> dict:
    return {"s0.q": s.q, "s0.p": s.p, "s0.t": s.t}


def _build_s0(cfg: dict) -> State:
    return State(cfg["s0.q"], cfg["s0.p"], cfg["s0.t"])


def _apply_overrides(cfg: dict, overrides: dict[str, float]) -> None:
    for path, value in overrides.items():
        if path not in cfg:
            raise UsageError(f"unknown override path {path!r}")
        current = cfg[path]
        if isinstance(current, str):
            raise UsageError(f"field {path!r} is not numeric")
        if isinstance(current, bool):
            raise UsageError(f"field {path!r} is not numeric")
        if isinstance(current, int):
            if not math.isfinite(value) or float(value) != int(value):
                raise UsageError(f"field {path!r} takes an integer, got {value}")
            cfg[path] = int(value)
        else:
            cfg[path] = float(value)


def _require_preset(manifest: RunManifest, want, what: str):
    if manifest.preset is None:
        raise UsageError(f"command {manifest.command!r} requires --preset")
    try:
        p = preset(manifest.preset)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if not isinstance(p, want):
        raise UsageError(f"preset {manifest.preset!r} is not {what}")
    return p


# -- command handlers ----------------------------------------------------------


def _dynamics_config(manifest: RunManifest, sections: tuple[str, ...]) -> dict:
    p = _require_preset(manifest, DynamicsPreset, "a dynamics case")
    cfg = {"preset": p.case_id}
    cfg.update(_model_map(p.model))
    cfg.update(_s0_map(p.s0))
    if "run" in sections:
        cfg.update(
            {
                "run.h": p.integration.h,
                "run.t0": p.integration.t0,
                "run.t_max": p.integration.t_max,
            }
        )
    if "record" in sections:
        cfg["run.record_stride"] = p.integration.record_stride
        cfg["run.method"] = p.integration.method.value
    if "lyapunov" in sections:
        cfg.update(
            {
                "lyapunov.t_transient": p.lyapunov.t_transient,
                "lyapunov.t_total": p.lyapunov.t_total,
                "lyapunov.h": p.lyapunov.h,
                "lyapunov.renorm_every": p.lyapunov.renorm_every,
            }
        )
    if "picard" in sections:
        cfg["picard.k"] = 12
    return cfg


def _cmd_simulate(manifest: RunManifest):
    cfg = _dynamics_config(manifest, ("run", "record"))
    if manifest.method:
        cfg["run.method"] = manifest.method.upper()
    _apply_overrides(cfg, manifest.overrides)
    model = _build_model(cfg)
    s0 = _build_s0(cfg)
    run_cfg = IntegrationConfig(
        h=cfg["run.h"],
        t0=cfg["run.t0"],
        t_max=cfg["run.t_max"],
        method=Method(cfg["run.method"]),
        record_stride=cfg["run.record_stride"],
    )
    if s0.t != run_cfg.t0:
        s0 = State(s0.q, s0.p, run_cfg.t0)
    traj = integrate(model, s0, run_cfg)
    rows = [(s.t, s.q, s.p) for s in traj.samples]
    return cfg, rows, traj.diverged


def _cmd_picard(manifest: RunManifest):
    cfg = _dynamics_config(manifest, ("run", "picard"))
    _apply_overrides(cfg, manifest.overrides)
    model = _build_model(cfg)
    s0 = _build_s0(cfg)
    grid = _time_grid(cfg["run.t0"], cfg["run.t_max"], cfg["run.h"])
    if s0.t != grid[0]:
        s0 = State(s0.q, s0.p, float(grid[0]))
    traj = picard_solve(model, s0, grid, cfg["picard.k"])
    rows = [(s.t, s.q, s.p) for s in traj.samples]
    return cfg, rows, traj.diverged


def _cmd_compare(manifest: RunManifest):
    cfg = _dynamics_config(manifest, ("run", "picard"))
    against = manifest.compare_with
    if against not in ("picard", "homotopy"):
        raise UsageError("--with must be picard or homotopy")
    cfg["with"] = against
    if against == "homotopy":
        cfg.update(_homotopy_map(DEFAULT_HOMOTOPY))
    _apply_overrides(cfg, manifest.overrides)
    model = _build_model(cfg)
    s0 = _build_s0(cfg)
    run_cfg = IntegrationConfig(
        h=cfg["run.h"], t0=cfg["run.t0"], t_max=cfg["run.t_max"], method=Method.RK4
    )
    if s0.t != run_cfg.t0:
        s0 = State(s0.q, s0.p, run_cfg.t0)
    traj = integrate(model, s0, run_cfg)
    times = [s.t for s in traj.samples]
    x_ref = [s.q for s in traj.samples]
    aborted = traj.diverged
    if against == "picard":
        other_name = "x_picard"
        other_traj = picard_solve(model, s0, np.array(times), cfg["picard.k"])
        x_other = [s.q for s in other_traj.samples]
        aborted = aborted or other_traj.diverged
    else:
        other_name = "x_homotopy"
        hcfg = _build_homotopy(cfg)
        x_other = [float(homotopy_approx(hcfg, t)) for t in times]
    rows = [(t, xr, xo, abs(xr - xo)) for t, xr, xo in zip(times, x_ref, x_other)]
    columns = ["t", "x_rk4", other_name, "abs_diff"]
    return cfg, columns, rows, aborted


def _cmd_lyapunov(manifest: RunManifest):
    p = _require_preset(manifest, DynamicsPreset, "a dynamics case")
    cfg = _dynamics_config(manifest, ("lyapunov",))
    _apply_overrides(cfg, manifest.overrides)
    model = _build_model(cfg)
    s0 = _build_s0(cfg)
    lcfg = LyapunovConfig(
        t_transient=cfg["lyapunov.t_transient"],
        t_total=cfg["lyapunov.t_total"],
        h=cfg["lyapunov.h"],
        renorm_every=cfg["lyapunov.renorm_every"],
    )
    res = lyapunov_spectrum(model, s0, lcfg)
    reported = p.paper_reported or (None, None)
    rows = [
        (
            res.exponents[0],
            res.exponents[1],
            res.sum_residual,
            res.renorm_count,
            reported[0],
            reported[1],
        )
    ]
    return cfg, rows, res.diverged


def _homotopy_map(h: HomotopyApprox) -> dict:
    return {
        "homotopy.amplitude": h.amplitude,
        "homotopy.omega": h.omega,
        "homotopy.lambda_h": h.lambda_h,
        "homotopy.correction_coeff": h.correction_coeff,
    }


def _build_homotopy(cfg: dict) -> HomotopyApprox:
    return HomotopyApprox(
        amplitude=cfg["homotopy.amplitude"],
        omega=cfg["homotopy.omega"],
        lambda_h=cfg["homotopy.lambda_h"],
        correction_coeff=cfg["homotopy.correction_coeff"],
    )


def _time_grid(t0: float, t_max: float, h: float) -> np.ndarray:
    if not all(map(math.isfinite, (t0, t_max, h))):
        raise UsageError("t0, t_max and h must be finite")
    if not h > 0:
        raise UsageError("h must be positive")
    if not t_max > t0:
        raise UsageError("t_max must exceed t0")
    n = int(math.floor((t_max - t0) / h + 0.5))
    return t0 + h * np.arange(n + 1)


def _cmd_homotopy(manifest: RunManifest):
    if manifest.preset is not None:
        raise UsageError("homotopy takes no preset; configure via --set homotopy.*")
    cfg = {"grid.t0": 0.0, "grid.t_max": 40.0, "grid.h": 0.01}
    cfg.update(_homotopy_map(DEFAULT_HOMOTOPY))
    _apply_overrides(cfg, manifest.overrides)
    hcfg = _build_homotopy(cfg)
    times = _time_grid(cfg["grid.t0"], cfg["grid.t_max"], cfg["grid.h"])
    primary = hcfg.amplitude * np.cos(hcfg.omega * times)
    correction = (
        hcfg.correction_coeff * hcfg.lambda_h**2 * np.cos(hcfg.omega * times)
    )
    total = homotopy_approx(hcfg, times)
    rows = list(
        zip(times.tolist(), primary.tolist(), correction.tolist(), total.tolist())
    )
    return cfg, rows, False


def _cmd_fd(manifest: RunManifest):
    p = _require_preset(manifest, FdPreset, "a finite-difference case")
    cfg = {"preset": p.case_id}
    cfg.update(_model_map(p.model))
    cfg.update({"fd.x0": p.x0, "fd.x1": p.x1, "fd.h": p.h, "fd.n": p.n})
    _apply_overrides(cfg, manifest.overrides)
    model = _build_model(cfg)
    xs = iterate_fd_duffing(model, cfg["fd.x0"], cfg["fd.x1"], cfg["fd.h"], cfg["fd.n"])
    rows = list(enumerate(xs.tolist()))
    return cfg, rows, len(xs) != cfg["fd.n"] + 1


def _cmd_bifurcate(manifest: RunManifest):
    p = _require_preset(manifest, SweepConfig, "a sweep case")
    cfg = {"preset": manifest.preset}
    cfg.update(_model_map(p.model_template))
    cfg.update(_s0_map(p.s0))
    cfg.update(
        {
            "sweep.omega_min": p.omega_min,
            "sweep.omega_max": p.omega_max,
            "sweep.n_samples": p.n_samples,
            "sweep.t_max": p.t_max,
            "sweep.h": p.h,
        }
    )
    _apply_overrides(cfg, manifest.overrides)
    sweep_cfg = SweepConfig(
        model_template=_build_model(cfg),
        omega_min=cfg["sweep.omega_min"],
        omega_max=cfg["sweep.omega_max"],
        n_samples=cfg["sweep.n_samples"],
        s0=_build_s0(cfg),
        t_max=cfg["sweep.t_max"],
        h=cfg["sweep.h"],
    )
    records = sweep_omega(sweep_cfg)
    rows = [
        (r.omega, r.x_final, r.y_final, r.conservation_residual, r.diverged)
        for r in records
    ]
    return cfg, rows, False


def _cmd_rates(manifest: RunManifest):
    if manifest.preset is not None:
        raise UsageError("rates takes no preset")
    _apply_overrides({}, manifest.overrides)
    errs = COMPARISON_FIXTURE.errors
    rows = []
    for n in range(errs.size - 1):
        rows.append(
            (n, float(errs[n]), float(errs[n + 1]), convergence_rate(errs, n))
        )
    return {}, rows, False


def _preset_fields(p) -> dict:
    if isinstance(p, SweepConfig):
        out = _model_map(p.model_template)
        out.update(_s0_map(p.s0))
        out.update(
            {
                "sweep.omega_min": p.omega_min,
                "sweep.omega_max": p.omega_max,
                "sweep.n_samples": p.n_samples,
                "sweep.t_max": p.t_max,
                "sweep.h": p.h,
            }
        )
        return out
    if isinstance(p, FdPreset):
        out = _model_map(p.model)
        out.update({"fd.x0": p.x0, "fd.x1": p.x1, "fd.h": p.h, "fd.n": p.n})
        return out
    out = _model_map(p.model)
    out.update(_s0_map(p.s0))
    out.update(
        {
            "run.h": p.integration.h,
            "run.t0": p.integration.t0,
            "run.t_max": p.integration.t_max,
            "run.record_stride": p.integration.record_stride,
            "run.method": p.integration.method.value,
            "lyapunov.t_transient": p.lyapunov.t_transient,
            "lyapunov.t_total": p.lyapunov.t_total,
            "lyapunov.h": p.lyapunov.h,
            "lyapunov.renorm_every": p.lyapunov.renorm_every,
        }
    )
    if p.paper_reported is not None:
        out["paper_reported.lambda1"] = p.paper_reported[0]
        out["paper_reported.lambda2"] = p.paper_reported[1]
    return out


def _cmd_presets(manifest: RunManifest):
    _apply_overrides({}, manifest.overrides)
    rows = []
    for case_id in PRESET_IDS:
        fields = _preset_fields(preset(case_id))
        for key in sorted(fields):
            rows.append((case_id, key, fields[key]))
    return {}, rows, False


# -- dispatch -------------------------------------------------------------------


def run(manifest: RunManifest) -> int:
    """Execute a manifest, writing one CSV/JSON document to its output path."""
    try:
        if manifest.command not in COMMANDS:
            raise UsageError(f"unknown command {manifest.command!r}")
        if manifest.format not in ("csv", "json"):
            raise UsageError(f"unknown format {manifest.format!r}")
        if manifest.command == "compare":
            cfg, columns, rows, aborted = _cmd_compare(manifest)
        else:
            handler = {
                "simulate": _cmd_simulate,
                "picard": _cmd_picard,
                "lyapunov": _cmd_lyapunov,
                "homotopy": _cmd_homotopy,
                "fd": _cmd_fd,
                "bifurcate": _cmd_bifurcate,
                "rates": _cmd_rates,
                "presets": _cmd_presets,
            }[manifest.command]
            cfg, rows, aborted = handler(manifest)
            columns = _CSV_COLUMNS[manifest.command]
    except (UsageError, ValueError) as e:
        print(f"duffing-lab: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # e.g. numpy refusing a buffer for fd.n=1e12
        print(f"duffing-lab: request too large: {e}", file=sys.stderr)
        return 1

    if manifest.format == "csv":
        doc = render_csv(columns, rows)
    else:
        doc = render_json(manifest.command, cfg, columns, rows)

    if manifest.output_path == "-":
        sys.stdout.write(doc)
    else:
        with open(manifest.output_path, "w", newline="\n") as fh:
            fh.write(doc)

    if aborted:
        print(
            "duffing-lab: integration overflowed; document holds the finite prefix",
            file=sys.stderr,
        )
        return 2
    return 0


# -- argument parsing -----------------------------------------------------------


def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def build_manifest(args: argparse.Namespace) -> RunManifest:
    file_entries: dict[str, str] = {}
    if args.config:
        file_entries = _parse_config_file(args.config)

    overrides: dict[str, float] = {}

    def add_override(path: str, raw: str):
        try:
            overrides[path] = float(raw)
        except ValueError:
            raise UsageError(f"override {path!r} needs a numeric value, got {raw!r}")

    manifest = RunManifest(command=args.command)
    for key, value in file_entries.items():
        if key == "command":
            continue  # the argv command wins
        elif key == "preset":
            manifest.preset = value
        elif key == "format":
            manifest.format = value
        elif key == "out":
            manifest.output_path = value
        elif key == "with":
            manifest.compare_with = value
        elif key == "method":
            manifest.method = value
        else:
            add_override(key, value)

    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects path=value, got {item!r}")
        path, _, raw = item.partition("=")
        add_override(path.strip(), raw.strip())

    flag_paths = {
        "t_max": {
            "simulate": "run.t_max",
            "picard": "run.t_max",
            "compare": "run.t_max",
            "homotopy": "grid.t_max",
            "lyapunov": "lyapunov.t_total",
            "bifurcate": "sweep.t_max",
        },
        "h": {
            "simulate": "run.h",
            "picard": "run.h",
            "compare": "run.h",
            "homotopy": "grid.h",
            "lyapunov": "lyapunov.h",
            "bifurcate": "sweep.h",
            "fd": "fd.h",
        },
        "omega_min": {"bifurcate": "sweep.omega_min"},
        "omega_max": {"bifurcate": "sweep.omega_max"},
        "samples": {"bifurcate": "sweep.n_samples"},
    }
    for flag, by_command in flag_paths.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        path = by_command.get(args.command)
        if path is None:
            raise UsageError(f"--{flag.replace('_', '-')} does not apply to {args.command!r}")
        overrides[path] = float(value)

    manifest.overrides = overrides
    if args.preset is not None:
        manifest.preset = args.preset
    if args.format is not None:
        manifest.format = args.format
    if args.out is not None:
        manifest.output_path = args.out
    if getattr(args, "compare_with", None) is not None:
        manifest.compare_with = args.compare_with
    if getattr(args, "method", None) is not None:
        manifest.method = args.method
    return manifest


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a one-line usage error (exit 1)
    instead of argparse's usage block and exit 2, which means overflow here."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="duffing-lab",
        description="Simulate, analyze and sweep the bundled oscillator models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "integrate a dynamics preset and emit the trajectory",
        "fd": "run the explicit finite-difference displacement recurrence",
        "homotopy": "evaluate the truncated homotopy series on a time grid",
        "picard": "solve by Picard iteration on a uniform grid",
        "compare": "tabulate RK4 against Picard (or the homotopy series)",
        "lyapunov": "estimate the Lyapunov spectrum of a dynamics preset",
        "bifurcate": "sweep forcing frequency and record terminal states",
        "rates": "successive-error convergence rates of the bundled table",
        "presets": "list preset ids with their parameter values",
    }
    for command in COMMANDS:
        p = sub.add_parser(command, help=descriptions[command])
        p.add_argument("--preset", help="preset id (see the presets command)")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a numeric field, e.g. --set model.delta=0.1",
        )
        p.add_argument("--config", help="key=value file applied before flags")
        p.add_argument("--t-max", type=float, dest="t_max")
        p.add_argument("--h", type=float)
        p.add_argument("--omega-min", type=float, dest="omega_min")
        p.add_argument("--omega-max", type=float, dest="omega_max")
        p.add_argument("--samples", type=float)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path, '-' for stdout (default)")
        if command == "compare":
            p.add_argument(
                "--with",
                dest="compare_with",
                choices=("picard", "homotopy"),
                help="comparison method (default picard)",
            )
        if command == "simulate":
            p.add_argument("--method", choices=("euler", "rk4"))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        manifest = build_manifest(_build_parser().parse_args(argv))
    except UsageError as e:
        print(f"duffing-lab: {e}", file=sys.stderr)
        return 1
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
