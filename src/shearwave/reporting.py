"""File output: atomic writes, snapshot/diagnostics CSV, run metadata.

Every file lands via write-to-temporary-then-rename in the destination
directory, so readers never see a half-written file.  Floats print with
17 significant digits and round-trip exactly, which is what makes
re-running from an echoed configuration byte-reproducible.  Each CSV body
is one ``%`` operation on a whole array (``'%.17g' % x == format(x, '.17g')``).
"""

import json
import os
import tempfile

import numpy as np

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


def csv_table(columns, rows) -> str:
    """A header line of column names, then one line per row of floats."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


def atomic_write_text(path: str, text):
    """Write text, a string or an iterable of string chunks, to path atomically.

    A chunk iterator that raises leaves neither path nor a temporary file.
    An OSError is raised again naming path, whichever file or directory
    failed, so that the caller can report what it could not write.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def snapshot_filename(t: float, decimals: int) -> str:
    return f"snap_{t:.{decimals}f}.csv"


def snapshot_template(grid) -> str:
    """A grid's snapshot CSV, x printed once, with %.17g slots for u, rho, m."""
    row = "%.17g,%%.17g,%%.17g,%%.17g\n"
    return "x,u,rho,m\n" + (row * grid.n) % tuple(grid.nodes.tolist())


def write_snapshot_csv(path: str, template: str, u, rho, m):
    """Fill a snapshot_template with the nodal values u, rho, m."""
    atomic_write_text(path, template % tuple(np.column_stack((u, rho, m)).ravel().tolist()))


def write_diagnostics_csv(path: str, records, header_meta: dict):
    """CSV with a JSON comment header describing columns and the run.

    A record's field values are its row; an undefined diagnostic is None,
    which the float table prints as nan.
    """
    meta = dict(header_meta)
    meta["columns"] = list(DIAG_COLUMNS)
    table = csv_table(DIAG_COLUMNS, [tuple(vars(rec).values()) for rec in records])
    atomic_write_text(path, "# " + json.dumps(meta, sort_keys=True) + "\n" + table)


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
