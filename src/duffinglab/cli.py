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
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .analysis import COMPARISON_FIXTURE, convergence_rate, lyapunov_spectrum
from .approx import DEFAULT_HOMOTOPY, homotopy_approx, picard_solve
from .bifurcation import (
    PRESET_IDS,
    DynamicsPreset,
    FdPreset,
    SweepConfig,
    preset,
    sweep_omega,
)
from .dynamics import MODEL_FIELDS
from .integrators import (
    FD_FIELDS, Method, check_span, integrate, iterate_fd_duffing, step_count,
)

__all__ = ["RunManifest", "run", "main", "read_csv_document", "sweep_records_from_csv"]

# The most work one request may ask for, in steps x lanes, each charged about
# its time.  A pass over n lanes or grid points (a sweep step, a Picard pass,
# the homotopy series) counts max(n, MIN_PASS): below several hundred lanes its
# fixed numpy call cost outweighs its per-lane cost (a sweep step takes about
# 23 us plus 35 ns per lane on a 2-core VM, 38 us at 500 lanes, about 42 ns per
# charged lane-step, measured while a scalar step took 1.7 us; the VM's speed
# varies by about 25%).  A scalar step (simulate, compare's RK4 run), 1.3-1.7 us,
# counts SCALAR_STEP, under its time in lane-steps of a preset sweep (35-40),
# and a lyapunov step, which also steps the tangent system, twice that.  A full
# preset sweep is 9e8.  A larger request is refused before anything is
# allocated or stepped.
MAX_WORK, MIN_PASS, SCALAR_STEP = 10**9, 900, 20
# The most rows one request may record, refused at the same point: simulate's
# recorded samples, the grid points of picard, compare and homotopy, fd.n + 1,
# and one per sweep lane.  The largest preset documents, picard and compare on
# ECO_DYN_1/2, hold 10^6 steps and the start.
MAX_ROWS = 10**6 + 1


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
    if tuple(columns) != _COMMANDS["bifurcate"].columns:
        raise ValueError(f"not a bifurcate document: header {columns}")
    return [SweepRecord(**r) for r in rows]


# -- configuration maps ---------------------------------------------------------


def _section(name: str, obj) -> dict:
    """The scalar fields of a config dataclass as ``name.field -> value``.

    Enums become their ``.value``; nested dataclasses and ``case_id`` are
    left out.
    """
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name != "case_id" and not is_dataclass(value):
            out[f"{name}.{f.name}"] = value.value if isinstance(value, Enum) else value
    return out


def _rebuild(obj, cfg: dict, name: str, **nested):
    """``obj`` with every ``name.field`` that ``cfg`` holds, each converted to
    the type of the field's current value (``run.method`` comes back a
    ``Method``), and with the ``nested`` dataclasses swapped in."""
    for f in fields(obj):
        path = f"{name}.{f.name}"
        if path in cfg:
            nested[f.name] = type(getattr(obj, f.name))(cfg[path])
    return replace(obj, **nested)


def preset_config(p) -> dict:
    """Every dotted path of a preset with its value, ``paper_reported.*``
    included: what ``presets`` lists and what each preset command starts from.
    ``model.*`` holds the kind and the coefficients its solver reads."""
    if isinstance(p, SweepConfig):
        model, sections = p.model_template, {"s0": p.s0, "sweep": p}
        # every lane takes its omega from the sweep grid
        read = [name for name in MODEL_FIELDS[model.kind] if name != "omega"]
    elif isinstance(p, FdPreset):
        model, read, sections = p.model, FD_FIELDS, {"fd": p}
    else:
        model, read = p.model, MODEL_FIELDS[p.model.kind]
        sections = {"s0": p.s0, "run": p.integration, "lyapunov": p.lyapunov}
    cfg = {"model.kind": model.kind.value}
    cfg.update((f"model.{name}", getattr(model, name)) for name in read)
    for name, obj in sections.items():
        cfg.update(_section(name, obj))
    if getattr(p, "paper_reported", None) is not None:
        cfg["paper_reported.lambda1"], cfg["paper_reported.lambda2"] = p.paper_reported
    return cfg


def _apply_overrides(cfg: dict, overrides: dict[str, float]) -> None:
    for path, value in overrides.items():
        if path not in cfg:
            raise UsageError(f"unknown override path {path!r}")
        current = cfg[path]
        if isinstance(current, (str, bool)):
            raise UsageError(f"field {path!r} is not numeric")
        if not math.isfinite(value):
            raise UsageError(f"field {path!r} must be finite, got {value}")
        if isinstance(current, int):
            if float(value) != int(value):
                raise UsageError(f"field {path!r} takes an integer, got {value}")
            cfg[path] = int(value)
        else:
            cfg[path] = float(value)


def _resolve(manifest: RunManifest, extra: dict | None = None):
    """The manifest's preset and the command's config: the preset's paths
    under the command's prefixes, then ``extra``, then the overrides."""
    cmd = _COMMANDS[manifest.command]
    if manifest.preset is None:
        raise UsageError(f"command {manifest.command!r} requires --preset")
    try:
        p = preset(manifest.preset)
    except ValueError as e:
        raise UsageError(str(e)) from None
    want, what = cmd.kind
    if not isinstance(p, want):
        raise UsageError(f"preset {manifest.preset!r} is not {what}")
    cfg = {"preset": manifest.preset}
    paths = preset_config(p)
    cfg.update((path, paths[path]) for path in paths if path.startswith(cmd.prefixes))
    cfg.update(extra or {})
    _apply_overrides(cfg, manifest.overrides)
    return p, cfg


def _bound(work: float, rows: float) -> None:
    if not work <= MAX_WORK:
        raise UsageError(
            f"request too large: {work:.3g} steps x lanes, more than {MAX_WORK:.0e}"
        )
    if not rows <= MAX_ROWS:
        raise UsageError(
            f"request too large: {rows:.0f} rows, more than {MAX_ROWS}"
        )


def _time_grid(t0: float, t_max: float, h: float, passes: int = 1) -> np.ndarray:
    """The grid t0 + i*h over a checked span [t0, t_max], once it is known to
    fit the row bound and ``passes`` passes over it the work bound."""
    check_span(t0, t_max, h)
    n = step_count(t0, t_max, h)
    _bound(max(n + 1, MIN_PASS) * passes, n + 1)
    return t0 + h * np.arange(int(n) + 1)


# -- command handlers ------------------------------------------------------------
#
# Each returns (config, rows, aborted); ``run`` renders the rows under the
# command's columns.


def _cmd_simulate(manifest: RunManifest):
    method = {"run.method": manifest.method.upper()} if manifest.method else {}
    p, cfg = _resolve(manifest, method)
    run_cfg = _rebuild(p.integration, cfg, "run")
    model, s0 = _rebuild(p.model, cfg, "model"), _rebuild(p.s0, cfg, "s0", t=run_cfg.t0)
    n, stride = step_count(run_cfg.t0, run_cfg.t_max, run_cfg.h), run_cfg.record_stride
    _bound(n * SCALAR_STEP, n // stride + 1 + (n % stride != 0))
    traj = integrate(model, s0, run_cfg)
    rows = list(zip(traj.t.tolist(), traj.q.tolist(), traj.p.tolist()))
    return cfg, rows, traj.diverged


def _cmd_picard(manifest: RunManifest):
    p, cfg = _resolve(manifest, {"picard.k": 12})
    t0, k = cfg["run.t0"], cfg["picard.k"]
    model, s0 = _rebuild(p.model, cfg, "model"), _rebuild(p.s0, cfg, "s0", t=t0)
    grid = _time_grid(t0, cfg["run.t_max"], cfg["run.h"], k)
    traj = picard_solve(model, s0, grid, k)
    rows = list(zip(traj.t.tolist(), traj.q.tolist(), traj.p.tolist()))
    return cfg, rows, traj.diverged


def _cmd_compare(manifest: RunManifest):
    against = manifest.compare_with
    if against not in ("picard", "homotopy"):
        raise UsageError("--with must be picard or homotopy")
    if against == "picard":
        extra = {"picard.k": 12, "with": against}
    else:
        extra = {"with": against, **_section("homotopy", DEFAULT_HOMOTOPY)}
    p, cfg = _resolve(manifest, extra)
    # the reference run is always RK4 and records every step
    run_cfg = replace(
        _rebuild(p.integration, cfg, "run"), method=Method.RK4, record_stride=1
    )
    model, s0 = _rebuild(p.model, cfg, "model"), _rebuild(p.s0, cfg, "s0", t=run_cfg.t0)
    n = step_count(run_cfg.t0, run_cfg.t_max, run_cfg.h)
    _bound(n * SCALAR_STEP + max(n + 1, MIN_PASS) * cfg.get("picard.k", 1), n + 1)
    traj = integrate(model, s0, run_cfg)
    times, x_ref = traj.t.tolist(), traj.q.tolist()
    aborted = traj.diverged
    if against == "picard":
        other_traj = picard_solve(model, s0, traj.t, cfg["picard.k"])
        x_other = other_traj.q.tolist()
        aborted = aborted or other_traj.diverged
    else:
        hcfg = _rebuild(DEFAULT_HOMOTOPY, cfg, "homotopy")
        x_other = [float(homotopy_approx(hcfg, t)) for t in times]
    rows = [(t, xr, xo, abs(xr - xo)) for t, xr, xo in zip(times, x_ref, x_other)]
    return cfg, rows, aborted


def _cmd_lyapunov(manifest: RunManifest):
    p, cfg = _resolve(manifest)
    model, s0 = _rebuild(p.model, cfg, "model"), _rebuild(p.s0, cfg, "s0")
    lcfg = _rebuild(p.lyapunov, cfg, "lyapunov")
    _bound(step_count(0.0, lcfg.t_total, lcfg.h) * 2 * SCALAR_STEP, 1)
    res = lyapunov_spectrum(model, s0, lcfg)
    reported = p.paper_reported or (None, None)
    rows = [(*res.exponents, res.sum_residual, res.renorm_count, *reported)]
    return cfg, rows, res.diverged


def _cmd_homotopy(manifest: RunManifest):
    if manifest.preset is not None:
        raise UsageError("homotopy takes no preset; configure via --set homotopy.*")
    cfg = {"grid.t0": 0.0, "grid.t_max": 40.0, "grid.h": 0.01}
    cfg.update(_section("homotopy", DEFAULT_HOMOTOPY))
    _apply_overrides(cfg, manifest.overrides)
    hcfg = _rebuild(DEFAULT_HOMOTOPY, cfg, "homotopy")
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
    p, cfg = _resolve(manifest)
    fd = _rebuild(p, cfg, "fd", model=_rebuild(p.model, cfg, "model"))
    _bound(fd.n, fd.n + 1)
    xs = iterate_fd_duffing(fd.model, fd.x0, fd.x1, fd.h, fd.n)
    return cfg, list(enumerate(xs.tolist())), len(xs) != fd.n + 1


def _cmd_bifurcate(manifest: RunManifest):
    p, cfg = _resolve(manifest)
    model, s0 = _rebuild(p.model_template, cfg, "model"), _rebuild(p.s0, cfg, "s0")
    sweep_cfg = _rebuild(p, cfg, "sweep", model_template=model, s0=s0)
    lanes, steps = sweep_cfg.n_samples, step_count(s0.t, sweep_cfg.t_max, sweep_cfg.h)
    _bound(max(lanes, MIN_PASS) * steps, lanes)
    rows = [
        (r.omega, r.x_final, r.y_final, r.conservation_residual, r.diverged)
        for r in sweep_omega(sweep_cfg)
    ]
    return cfg, rows, False


def _cmd_rates(manifest: RunManifest):
    if manifest.preset is not None:
        raise UsageError("rates takes no preset")
    _apply_overrides({}, manifest.overrides)
    errs = COMPARISON_FIXTURE.errors
    rows = [
        (n, float(errs[n]), float(errs[n + 1]), convergence_rate(errs, n))
        for n in range(errs.size - 1)
    ]
    return {}, rows, False


def _cmd_presets(manifest: RunManifest):
    _apply_overrides({}, manifest.overrides)
    rows = []
    for case_id in PRESET_IDS:
        paths = preset_config(preset(case_id))
        rows.extend((case_id, path, paths[path]) for path in sorted(paths))
    return {}, rows, False


# -- command table ---------------------------------------------------------------


class _Command(NamedTuple):
    """What the parser, the dispatcher and the handlers know of one command."""

    handler: Callable[[RunManifest], tuple]
    help: str
    # CSV header; compare names its third column after --with
    columns: tuple[str, ...]
    # numeric flag -> the override path it sets
    flags: dict[str, str] = {}
    # (preset class, what it is called) for the commands that take a preset
    kind: tuple = ()
    # the preset paths the command's config keeps
    prefixes: tuple[str, ...] = ()
    # the keys besides the common ones that it takes ("method", "with")
    keys: tuple[str, ...] = ()


_NUMERIC_FLAGS = ("t_max", "h", "omega_min", "omega_max", "samples")
_RUN_FLAGS = {"t_max": "run.t_max", "h": "run.h"}
_DYNAMICS = (DynamicsPreset, "a dynamics case")
_PICARD_PREFIXES = ("model.", "s0.q", "s0.p", "run.h", "run.t0", "run.t_max")

_COMMANDS = {
    "simulate": _Command(
        _cmd_simulate, "integrate a dynamics preset and emit the trajectory",
        ("t", "x", "v"), _RUN_FLAGS, _DYNAMICS, ("model.", "s0.q", "s0.p", "run."),
        keys=("method",),
    ),
    "fd": _Command(
        _cmd_fd, "run the explicit finite-difference displacement recurrence",
        ("n", "x"), {"h": "fd.h"}, (FdPreset, "a finite-difference case"),
        ("model.", "fd."),
    ),
    "homotopy": _Command(
        _cmd_homotopy, "evaluate the truncated homotopy series on a time grid",
        ("t", "x_primary", "x_correction", "x_total"),
        {"t_max": "grid.t_max", "h": "grid.h"},
    ),
    "picard": _Command(
        _cmd_picard, "solve by Picard iteration on a uniform grid",
        ("t", "x", "v"), _RUN_FLAGS, _DYNAMICS, _PICARD_PREFIXES,
    ),
    "compare": _Command(
        _cmd_compare, "tabulate RK4 against Picard (or the homotopy series)",
        ("t", "x_rk4", "x_{with}", "abs_diff"), _RUN_FLAGS, _DYNAMICS,
        _PICARD_PREFIXES, keys=("with",),
    ),
    "lyapunov": _Command(
        _cmd_lyapunov, "estimate the Lyapunov spectrum of a dynamics preset",
        ("lambda1", "lambda2", "sum_residual", "renorm_count",
         "paper_reported_lambda1", "paper_reported_lambda2"),
        {"t_max": "lyapunov.t_total", "h": "lyapunov.h"}, _DYNAMICS,
        ("model.", "s0.", "lyapunov."),
    ),
    "bifurcate": _Command(
        _cmd_bifurcate, "sweep forcing frequency and record terminal states",
        ("omega", "x_final", "y_final", "conservation_residual", "diverged"),
        {"t_max": "sweep.t_max", "h": "sweep.h", "omega_min": "sweep.omega_min",
         "omega_max": "sweep.omega_max", "samples": "sweep.n_samples"},
        (SweepConfig, "a sweep case"), ("model.", "s0.", "sweep."),
    ),
    "rates": _Command(
        _cmd_rates, "successive-error convergence rates of the bundled table",
        ("N", "error_N", "error_N1", "rate"),
    ),
    "presets": _Command(
        _cmd_presets, "list preset ids with their parameter values",
        ("preset", "field", "value"),
    ),
}


# -- dispatch -------------------------------------------------------------------


def run(manifest: RunManifest) -> int:
    """Execute a manifest, writing one CSV/JSON document to its output path."""
    try:
        cmd = _COMMANDS.get(manifest.command)
        if cmd is None:
            raise UsageError(f"unknown command {manifest.command!r}")
        if manifest.format not in ("csv", "json"):
            raise UsageError(f"unknown format {manifest.format!r}")
        cfg, rows, aborted = cmd.handler(manifest)
    except (UsageError, ValueError) as e:
        print(f"duffing-lab: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy refusing a buffer the work bound admits
        print(f"duffing-lab: request too large: {e}", file=sys.stderr)
        return 1

    columns = [c.format_map(cfg) for c in cmd.columns]
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


# Config-file keys, each also the dest of its flag, that set a RunManifest
# field instead of an override path.
_MANIFEST_KEYS = {"preset": "preset", "format": "format", "out": "output_path",
                  "with": "compare_with", "method": "method"}


def build_manifest(args: argparse.Namespace) -> RunManifest:
    cmd = _COMMANDS[args.command]
    file_entries = _parse_config_file(args.config) if args.config else {}

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
        attr = _MANIFEST_KEYS.get(key)
        if attr is None:
            add_override(key, value)
        elif key in ("with", "method") and key not in cmd.keys:
            raise UsageError(f"config key {key!r} does not apply to {args.command!r}")
        else:
            setattr(manifest, attr, value)

    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects path=value, got {item!r}")
        path, _, raw = item.partition("=")
        add_override(path.strip(), raw.strip())

    for flag in _NUMERIC_FLAGS:
        value = getattr(args, flag, None)
        if value is None:
            continue
        path = cmd.flags.get(flag)
        if path is None:
            raise UsageError(
                f"--{flag.replace('_', '-')} does not apply to {args.command!r}"
            )
        overrides[path] = float(value)

    manifest.overrides = overrides
    for key, attr in _MANIFEST_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            setattr(manifest, attr, value)
    return manifest


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a one-line usage error (exit 1)
    instead of argparse's usage block and exit 2, which means overflow here."""

    def error(self, message):
        raise UsageError(message)


def _build_parser(commands=_COMMANDS) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="duffing-lab",
        description="Simulate, analyze and sweep the bundled oscillator models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, cmd in commands.items():
        p = sub.add_parser(command, help=cmd.help)
        p.add_argument("--preset", help="preset id (see the presets command)")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a numeric field, e.g. --set model.delta=0.1",
        )
        p.add_argument("--config", help="key=value file applied before flags")
        for flag in _NUMERIC_FLAGS:
            p.add_argument("--" + flag.replace("_", "-"), type=float, dest=flag)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path, '-' for stdout (default)")
        if "with" in cmd.keys:
            p.add_argument(
                "--with",
                choices=("picard", "homotopy"),
                help="comparison method (default picard)",
            )
        if "method" in cmd.keys:
            p.add_argument("--method", choices=("euler", "rk4"))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line that names its command parses the same against that
    # command's subparser alone; any other needs every command's help and
    # choices
    first = argv[0] if argv else None
    commands = {first: _COMMANDS[first]} if first in _COMMANDS else _COMMANDS
    try:
        manifest = build_manifest(_build_parser(commands).parse_args(argv))
    except UsageError as e:
        print(f"duffing-lab: {e}", file=sys.stderr)
        return 1
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
