"""File output: atomic writes, snapshot/diagnostics CSV, run metadata.

Every file lands via write-to-temporary-then-rename in the destination
directory, so readers never see a half-written file.  Floats print with
17 significant digits and round-trip exactly, which is what makes
re-running from an echoed configuration byte-reproducible.
"""

import json
import os
import tempfile

from .diagnostics import DiagnosticsRecord

DIAG_COLUMNS = (
    "t",
    "energy_a2",
    "mean_u",
    "casimir",
    "min_rho",
    "max_ux",
    "h0",
    "h1",
    "h2",
    "lemma61_dev",
)


def fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def snapshot_filename(t: float, decimals: int = 6) -> str:
    return f"snap_{t:.{decimals}f}.csv"


def write_snapshot_csv(path: str, grid, u, rho, m):
    lines = ["x,u,rho,m"]
    for x, uv, rv, mv in zip(grid.nodes, u.values, rho.values, m.values):
        lines.append(f"{fmt(x)},{fmt(uv)},{fmt(rv)},{fmt(mv)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_diagnostics_csv(path: str, records, header_meta: dict):
    """CSV with a JSON comment header describing columns and the run."""
    meta = dict(header_meta)
    meta["columns"] = list(DIAG_COLUMNS)
    lines = ["# " + json.dumps(meta, sort_keys=True), ",".join(DIAG_COLUMNS)]
    for rec in records:
        lines.append(_diag_row(rec))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _diag_row(rec: DiagnosticsRecord) -> str:
    cells = [
        fmt(rec.t),
        fmt(rec.energy_a2),
        fmt(rec.mean_u),
        fmt(rec.casimir),
        fmt(rec.min_rho),
        fmt(rec.max_ux),
        fmt(rec.h_norms.get(0)),
        fmt(rec.h_norms.get(1)),
        fmt(rec.h_norms.get(2)),
        fmt(rec.lemma_deviation),
    ]
    return ",".join(cells)


def write_run_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_diagnostics_csv(path: str):
    """Inverse of write_diagnostics_csv: (meta, list of row dicts)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path}: missing JSON header line")
    meta = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        rows.append({c: float(v) for c, v in zip(columns, line.split(","))})
    return meta, rows
