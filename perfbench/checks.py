"""Correctness gate for every emitted document.

``check`` returns a list of failure messages; an empty list passes.  The
checks use only the document and the job's ``expect`` values, so a document
changed after the program wrote it (a flipped digit, a lost row) fails.
"""

from __future__ import annotations

import json

import numpy as np

# Bound at import time, before tracing can patch the module attribute, so the
# round-trip check never records a render span of its own.
from duffinglab.cli import render_csv

CONSERVATION_BOUND = 1e-6  # acceptance criterion c04
LYAPUNOV_SUM_TOL = 0.01  # acceptance criterion c03
FD_BOUND = 10.0  # acceptance criterion c08

_COLUMNS = {
    "sweep": ["omega", "x_final", "y_final", "conservation_residual", "diverged"],
    "trajectory": ["t", "x", "v"],
    "picard": ["t", "x", "v"],
    "compare": ["t", "x_rk4", "x_picard", "abs_diff"],
    "fd": ["n", "x"],
    "homotopy": ["t", "x_primary", "x_correction", "x_total"],
    "lyapunov": [
        "lambda1", "lambda2", "sum_residual", "renorm_count",
        "paper_reported_lambda1", "paper_reported_lambda2",
    ],
}


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([r[name] for r in rows], dtype=float)


def _finite(arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _grid(steps: int, h: float, stride: int = 1) -> np.ndarray:
    """Sample times as the program forms them, t0 + i*h with t0 = 0: every
    ``stride``-th step plus the final step."""
    idx = np.arange(0, steps + 1, stride, dtype=np.int64)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    return 0.0 + idx * h


def check(job, text: str, parsed, context: dict) -> list[str]:
    """Check one document.  ``parsed`` is ``read_csv_document(text)`` for CSV
    documents and None for JSON; ``context`` carries values between the jobs
    of one pass (the JSON trajectory is compared with its CSV twin)."""
    exp = job.expect
    kind = exp["kind"]
    if job.fmt == "json":
        doc = json.loads(text)
        if doc.get("command") != job.command:
            return [f"json command {doc.get('command')!r}"]
        columns = list(doc["rows"][0]) if doc["rows"] else []
        rows = doc["rows"]
        if sorted(columns) != sorted(_COLUMNS[kind]):
            return [f"json columns {columns}"]
        if doc["config"].get("s0.q") != exp["q0"] or doc["config"].get("s0.p") != exp["p0"]:
            return ["json config does not echo the seeded s0"]
    else:
        columns, rows = parsed
        if columns != _COLUMNS[kind]:
            return [f"columns {columns}"]
    if len(rows) != exp["rows"]:
        return [f"{len(rows)} rows, expected {exp['rows']}"]
    return _CHECKS[kind](exp, columns, rows, text, job, context)


def _check_sweep(exp, columns, rows, text, job, context) -> list[str]:
    bad = []
    omega, x, y, resid = (_column(rows, c) for c in columns[:4])
    if not np.array_equal(omega, np.linspace(exp["omega_min"], exp["omega_max"], exp["rows"])):
        bad.append("omega column differs from the requested grid")
    if any(r["diverged"] is not False for r in rows):
        bad.append("diverged lanes")
    if not _finite((x, y, resid)):
        bad.append("non-finite terminal state")
    recomputed = np.abs((y - exp["beta"] * x) - (exp["p0"] - exp["beta"] * exp["q0"]))
    if not float(np.max(recomputed)) <= CONSERVATION_BOUND:
        bad.append(f"conservation drift {np.max(recomputed):.3e} > {CONSERVATION_BOUND}")
    if not float(np.max(resid)) <= CONSERVATION_BOUND:
        bad.append(f"reported conservation_residual {np.max(resid):.3e} > {CONSERVATION_BOUND}")
    if not float(np.max(np.abs(recomputed - resid))) <= 1e-9:
        bad.append("conservation_residual disagrees with the terminal state")
    if render_csv(columns, [[r[c] for c in columns] for r in rows]) != text:
        bad.append("CSV does not round-trip byte-exactly")
    return bad


def _check_trajectory(exp, columns, rows, text, job, context) -> list[str]:
    bad = []
    t, x, v = (_column(rows, c) for c in ("t", "x", "v"))
    if not np.array_equal(t, _grid(exp["steps"], exp["h"], exp["stride"])):
        bad.append("sample times differ from t0 + i*h")
    if not _finite((x, v)):
        bad.append("non-finite state")
    elif x[0] != exp["q0"] or v[0] != exp["p0"]:
        bad.append("first sample is not the seeded s0")
    if "beta" in exp:
        beta = exp["beta"]
        drift = float(np.max(np.abs((v - beta * x) - (exp["p0"] - beta * exp["q0"]))))
        if not drift <= CONSERVATION_BOUND:
            bad.append(f"ecology drift {drift:.3e} > {CONSERVATION_BOUND}")
    twin = job.name.rsplit("-", 1)[0] if job.name.endswith(("-csv", "-json")) else None
    if twin is not None:
        if job.fmt == "csv":
            context[twin] = (x, v)
        elif twin in context:
            cx, cv = context[twin]
            if not (np.array_equal(cx, x) and np.array_equal(cv, v)):
                bad.append("JSON rows differ from the CSV document of the same run")
    return bad


def _check_lyapunov(exp, columns, rows, text, job, context) -> list[str]:
    r = rows[0]
    lam1, lam2 = r["lambda1"], r["lambda2"]
    if not _finite((np.array([lam1, lam2, r["sum_residual"]]),)):
        return ["non-finite exponents"]
    bad = []
    if not abs(lam1 + lam2 + exp["delta"]) <= LYAPUNOV_SUM_TOL:
        bad.append(f"|l1+l2+delta| = {abs(lam1 + lam2 + exp['delta']):.3e} > {LYAPUNOV_SUM_TOL}")
    if not lam1 >= lam2:
        bad.append("exponents not in descending order")
    if r["renorm_count"] != exp["renorms"]:
        bad.append(f"renorm_count {r['renorm_count']} != {exp['renorms']}")
    return bad


def _check_fd(exp, columns, rows, text, job, context) -> list[str]:
    n, x = _column(rows, "n"), _column(rows, "x")
    bad = []
    if not np.array_equal(n, np.arange(exp["rows"], dtype=float)):
        bad.append("index column is not 0..n")
    if not _finite((x,)):
        bad.append("non-finite displacement")
    elif not float(np.max(np.abs(x))) < FD_BOUND:
        bad.append(f"max |x| {np.max(np.abs(x)):.3e} >= {FD_BOUND}")
    if x[0] != exp["x0"] or x[1] != exp["x1"]:
        bad.append("first values are not the seeded x0, x1")
    # Every x[k+1] must follow from x[k-1], x[k] by the documented recurrence.
    h, lam = exp["h"], exp["lambda_h"]
    hl, h2l = h * lam, h * h * lam
    xk, xp = x[1:-1], x[:-2]
    k = np.arange(1, x.size - 1)
    pred = ((2.0 + hl) * xk - xp - h2l * (exp["alpha"] * xk + exp["beta"] * xk * xk * xk)
            + h2l * exp["gamma"] * np.cos(exp["omega"] * k * h)) / (1.0 + hl)
    if not float(np.max(np.abs(pred - x[2:]), initial=0.0)) <= 1e-9 * float(np.max(np.abs(x))):
        bad.append("displacements do not follow the FD recurrence")
    return bad


def _check_grid_solver(exp, columns, rows, text, job, context) -> list[str]:
    cols = [_column(rows, c) for c in columns]
    bad = []
    if not np.array_equal(cols[0], _grid(exp["rows"] - 1, exp["h"])):
        bad.append("sample times differ from t0 + i*h")
    if not _finite(cols[1:]):
        bad.append("non-finite output")
        return bad
    if cols[1][0] != exp["q0"]:
        bad.append("first sample is not the seeded s0")
    if exp["kind"] == "compare" and not np.array_equal(cols[3], np.abs(cols[1] - cols[2])):
        bad.append("abs_diff is not |x_rk4 - x_picard|")
    return bad


def _check_homotopy(exp, columns, rows, text, job, context) -> list[str]:
    t, primary, correction, total = (_column(rows, c) for c in columns)
    bad = []
    if not np.array_equal(t, _grid(exp["rows"] - 1, exp["h"])):
        bad.append("sample times differ from t0 + i*h")
    if not _finite((primary, correction, total)):
        bad.append("non-finite series")
    elif not float(np.max(np.abs(total - (primary + correction)))) <= 1e-12:
        bad.append("x_total is not x_primary + x_correction")
    return bad


_CHECKS = {
    "sweep": _check_sweep,
    "trajectory": _check_trajectory,
    "lyapunov": _check_lyapunov,
    "fd": _check_fd,
    "picard": _check_grid_solver,
    "compare": _check_grid_solver,
    "homotopy": _check_homotopy,
}
