"""Array formatters of the CSV writers and SVG plots against per-value loops."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from shearwave import SpectralGrid
from shearwave.diagnostics import DiagnosticsRecord
from shearwave.reporting import (
    DIAG_COLUMNS,
    atomic_write_text,
    read_diagnostics_csv,
    snapshot_template,
    write_diagnostics_csv,
    write_snapshot_csv,
)
from shearwave.svgplot import _axis, line_plot, waterfall_plot

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -1e308]


def fmt(x):
    """Per-value reference: the formatting of one CSV cell."""
    return "nan" if x is None else format(float(x), ".17g")


def polylines(svg_text):
    return re.findall(r'<polyline points="([^"]*)"', svg_text)


def reference_points(series, xs, ys):
    """Per-value reference: the points of one polyline of line_plot(series)."""
    all_x = [x for _, sx, _ in series for x in sx if math.isfinite(x)]
    all_y = [y for _, _, sy in series for y in sy if math.isfinite(y)]
    x0, x1, scale_x = _axis(np.array(all_x))
    y0, y1, scale_y = _axis(np.array(all_y))

    def px(x):
        return 70 + (x * scale_x - x0) / (x1 - x0) * (760 - 70 - 20)

    def py(y):
        return 480 - 52 - (y * scale_y - y0) / (y1 - y0) * (480 - 42 - 52)

    return " ".join(
        f"{px(x):.2f},{py(y):.2f}"
        for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y)
    )


def reference_waterfall(x, snapshots):
    """Per-value reference: the (label, xs, ys) series that waterfall_plot draws."""
    finite = [abs(v) for _, vals in snapshots for v in vals if math.isfinite(v)]
    amp = max(finite, default=0.0) or 1.0
    last = len(snapshots) - 1
    return [
        (
            f"t={t:.3f}" if i in (0, last) else "",
            x,
            [i / max(1, last) + v / (3.0 * amp) for v in vals],
        )
        for i, (t, vals) in enumerate(snapshots)
    ]


@pytest.mark.parametrize("x", SPECIAL)
def test_percent_formats_as_format(x):
    assert "%.17g" % x == format(x, ".17g")
    assert "%.2f" % x == f"{x:.2f}"


def test_snapshot_csv_matches_per_value_loop(tmp_path):
    grid = SpectralGrid(8)
    u = np.array(SPECIAL)
    rho = u[::-1].copy()
    m = np.roll(u, 3)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(str(path), snapshot_template(grid), u, rho, m)
    lines = ["x,u,rho,m"] + [
        f"{fmt(x)},{fmt(a)},{fmt(b)},{fmt(c)}" for x, a, b, c in zip(grid.nodes, u, rho, m)
    ]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_diagnostics_rows_match_per_value_loop(tmp_path):
    records = [
        DiagnosticsRecord(
            t=t,
            energy_a2=e,
            mean_u=-0.0,
            casimir=None if i % 2 else c,
            min_rho=5e-324,
            max_ux=c,
            h0=e if i % 2 else t,
            h1=None if i % 2 else c,
            h2=t if i % 2 else e,
            lemma_deviation=None if i == 0 else e,
        )
        for i, (t, e, c) in enumerate(zip(SPECIAL, SPECIAL[3:] + SPECIAL[:3], SPECIAL[::-1]))
    ]
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(str(path), records, {"status": "completed"})
    lines = path.read_text().split("\n")
    assert lines[1] == ",".join(DIAG_COLUMNS)
    rows = [
        ",".join(
            fmt(v)
            for v in (
                r.t,
                r.energy_a2,
                r.mean_u,
                r.casimir,
                r.min_rho,
                r.max_ux,
                r.h0,
                r.h1,
                r.h2,
                r.lemma_deviation,
            )
        )
        for r in records
    ]
    assert lines[2:] == rows + [""]


def test_record_fields_are_the_columns():
    # one schema: a new field cannot shift the CSV columns unnoticed
    names = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    assert names == [{"lemma61_dev": "lemma_deviation"}.get(c, c) for c in DIAG_COLUMNS]


def test_polylines_match_per_value_loop(tmp_path):
    xs = [0.0, 1.0, 2.0, -0.0, 3.0, 5e-324, 4.0, 0.1]
    series = [("a", xs, SPECIAL), ("", SPECIAL[::-1], xs), ("b", xs, [x * 1e300 for x in xs])]
    path = tmp_path / "plot.svg"
    line_plot(str(path), [(label, np.array(sx), np.array(sy)) for label, sx, sy in series])
    drawn = polylines(path.read_text())
    assert drawn == [reference_points(series, sx, sy) for _, sx, sy in series]


def test_series_without_a_finite_value_is_drawn_empty(tmp_path):
    series = [
        ("none", [math.nan, math.inf], [-math.inf, math.nan]),
        ("some", [0.0, 1.0, 2.0], [1.0, -2.0, 0.5]),
    ]
    path = tmp_path / "plot.svg"
    line_plot(str(path), series)
    drawn = polylines(path.read_text())
    assert drawn == ["", reference_points(series, *series[1][1:])]


def test_non_finite_points_are_left_out(tmp_path):
    series = [("", [0.0, 1.0, 2.0, math.nan, 3.0], [0.0, math.nan, math.inf, 1.0, 2.0])]
    path = tmp_path / "plot.svg"
    line_plot(str(path), series)
    (points,) = polylines(path.read_text())
    assert len(points.split()) == 2
    assert points == reference_points(series, *series[0][1:])


def test_range_wider_than_the_floats_is_drawn(tmp_path):
    # the padded range of y exceeds the largest float, which once made every
    # y coordinate and y tick nan
    path = tmp_path / "plot.svg"
    line_plot(str(path), [("", [0, 1, 2], [-1e308, 0, 1e308])])
    text = path.read_text()
    assert "nan" not in text
    (points,) = polylines(text)
    px, py = np.array([p.split(",") for p in points.split()], float).T
    assert np.all(np.diff(px) > 0) and np.all(np.diff(py) < 0)  # SVG's y axis points down


def test_constant_subnormal_series_is_drawn(tmp_path):
    # a tenth of the smallest subnormal rounds to 0, which once left the
    # padded y range with zero width
    path = tmp_path / "plot.svg"
    line_plot(str(path), [("", [0, 1], [5e-324, 5e-324])])
    assert "nan" not in path.read_text()


def test_failed_chunk_stream_leaves_no_file(tmp_path):
    def chunks():
        yield "<svg>\n"
        raise RuntimeError("plot failed")

    with pytest.raises(RuntimeError, match="plot failed"):
        atomic_write_text(str(tmp_path / "plot.svg"), chunks())
    assert list(tmp_path.iterdir()) == []


def test_nothing_finite_raises(tmp_path):
    with pytest.raises(ValueError, match="nothing finite"):
        line_plot(str(tmp_path / "plot.svg"), [("", [0.0, 1.0], [math.nan, -math.inf])])


def test_waterfall_scale_ignores_non_finite_samples(tmp_path):
    drawn = []
    for late in ([math.nan, 8.0, 1.0], [8.0, 1.0, math.nan]):
        path = tmp_path / "waterfall.svg"
        waterfall_plot(str(path), [0.0, 1.0, 2.0], [(0.0, [1.0, 2.0, 1.0]), (1.0, late)])
        drawn.append(polylines(path.read_text())[0])
    assert drawn[0] == drawn[1]
    # the scale is the largest finite |value|, 8
    series = [
        ("", [0.0, 1.0, 2.0], [1 / 24, 2 / 24, 1 / 24]),
        ("", [0.0, 1.0], [1 + 8 / 24, 1 + 1 / 24]),
    ]
    assert drawn[0] == reference_points(series, *series[0][1:])


WATERFALLS = {
    "non_finite_samples": [
        (0.0, [1.0, math.nan, -2.0, 0.5]),
        (0.5, [math.inf, 0.25, -math.inf, 3.0]),
        (1.0, [0.1, 0.2, math.nan, -0.3]),
    ],
    "single_snapshot": [(0.25, [1.0, -0.5, math.nan, 2.0])],
    "row_without_a_finite_sample": [
        (0.0, [1.0, 2.0, 3.0, 4.0]),
        (0.1, [math.nan, math.inf, -math.inf, math.nan]),
        (0.2, [-1.0, 0.0, 1.0, 2.0]),
    ],
    "one_sign_with_a_negative_extreme": [
        (0.0, [-1.0, -4.0, -2.0, -0.5]),
        (1.0, [-0.25, -3.0, -1.0, -2.0]),
    ],
}


@pytest.mark.parametrize("snapshots", WATERFALLS.values(), ids=WATERFALLS.keys())
def test_waterfall_matches_per_value_loop(tmp_path, snapshots):
    x = [0.0, 1.5, 3.0, 4.5]
    path = tmp_path / "waterfall.svg"
    waterfall_plot(str(path), np.array(x), [(t, np.array(vals)) for t, vals in snapshots])
    text = path.read_text()
    series = reference_waterfall(x, snapshots)
    assert polylines(text) == [reference_points(series, x, ys) for _, _, ys in series]
    assert re.findall(r">(t=[^<]*)</text>", text) == [label for label, _, _ in series if label]


def test_waterfall_legend_rows_count_labelled_traces_only(tmp_path):
    # only the first and last traces are labelled, so their legend rows are
    # the first two, however many traces lie between them
    path = tmp_path / "waterfall.svg"
    x = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    waterfall_plot(str(path), x, [(0.1 * i, np.sin(x + i)) for i in range(40)])
    legend = re.findall(r'<text x="[^"]*" y="([^"]*)">(t=[^<]*)</text>', path.read_text())
    assert legend == [("58", "t=0.000"), ("73", "t=3.900")]


def test_waterfall_copies_no_row(tmp_path):
    # extents are reduced row by row and each trace exists only while it is
    # drawn, so drawing holds a small fraction of the rows' bytes
    x = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    snapshots = [(0.01 * i, np.sin(x + 0.01 * i)) for i in range(200)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        waterfall_plot(str(tmp_path / "waterfall.svg"), x, snapshots)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * sum(vals.nbytes for _, vals in snapshots)


@pytest.mark.parametrize("text", ["", "t,energy\n0,1\n"])
def test_diagnostics_csv_without_header_is_refused(tmp_path, text):
    path = tmp_path / "diagnostics.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="missing JSON header line"):
        read_diagnostics_csv(str(path))


def test_waterfall_needs_a_snapshot(tmp_path):
    with pytest.raises(ValueError, match="no snapshots to plot"):
        waterfall_plot(str(tmp_path / "waterfall.svg"), [0.0, 1.0], [])
    assert list(tmp_path.iterdir()) == []
