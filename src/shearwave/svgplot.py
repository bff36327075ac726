"""Minimal SVG line plots, no plotting dependency.

Enough for run reports: multiple labelled polylines over shared axes,
and a waterfall of field snapshots offset by time.  Output is a single
standalone .svg file, written as a stream of lines.  Points where x or y is not finite are left out.
Each polyline is mapped as an array and printed in one ``%`` operation.
Axis extents are reduced one array at a time, so drawing copies no input,
and each offset trace of a waterfall exists only while it is drawn.
"""

import math
from itertools import count

import numpy as np

from .reporting import atomic_write_text

_PALETTE = (
    "#1f6fb4",
    "#d45500",
    "#2e8540",
    "#8041a8",
    "#b01f2e",
    "#71685a",
    "#0e8c8c",
    "#c28e0e",
)

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 70, 20, 42, 52


def _extent(arrays):
    """(lo, hi) of the finite values of the arrays, or (inf, -inf) if there are none."""
    lo, hi = math.inf, -math.inf
    for values in arrays:
        keep = np.isfinite(values)
        lo = min(lo, float(values.min(where=keep, initial=math.inf)))
        hi = max(hi, float(values.max(where=keep, initial=-math.inf)))
    return lo, hi


def _span(lo, hi):
    if hi <= lo:
        pad = abs(lo) * 0.1 or 1.0  # a tenth of 0, or of a small subnormal, rounds to 0
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _axis(values):
    """(lo, hi, scale): the plotted range of the finite values, in units of scale.

    values may be just their extremes, such as the pair (lo, hi).  scale is
    1, or 1/4 when the padded range is wider than the largest float; a power
    of two leaves the mapped coordinates as exact as at 1.
    """
    lo, hi = float(np.min(values)), float(np.max(values))
    x0, x1 = _span(lo, hi)
    if math.isfinite(x1 - x0):
        return x0, x1, 1.0
    return (*_span(lo * 0.25, hi * 0.25), 0.25)


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


# degenerate inputs map to inf or nan silently, as scalar float arithmetic does
@np.errstate(all="ignore")
def line_plot(path, series, title="", xlabel="", ylabel=""):
    """series: iterable of (label, xs, ys), arrays of floats.  Writes an SVG file."""
    series = [(label, np.asarray(xs, float), np.asarray(ys, float)) for label, xs, ys in series]
    x_extent = _extent(xs for _, xs, _ in series)
    _write(path, series, x_extent, _extent(ys for _, _, ys in series), title, xlabel, ylabel)


def _write(path, series, x_extent, y_extent, title, xlabel, ylabel):
    """Write the SVG of series, an iterable of (label, xs, ys) read once, drawing each in turn."""
    if x_extent[0] > x_extent[1] or y_extent[0] > y_extent[1]:
        raise ValueError("nothing finite to plot")
    parts = _svg_parts(series, _axis(x_extent), _axis(y_extent), title, xlabel, ylabel)
    atomic_write_text(path, (part + "\n" for part in parts))


def _svg_parts(series, x_axis, y_axis, title, xlabel, ylabel):
    """The lines of the SVG, in order, without their newlines."""
    x0, x1, sx = x_axis
    y0, y1, sy = y_axis

    def px(x):  # x in units of sx
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y):  # y in units of sy
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">'
    )
    yield f'<rect width="{_W}" height="{_H}" fill="white"/>'
    if title:
        yield (
            f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="15">{_esc(title)}</text>'
        )
    # axes with ticks
    yield (
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>'
    )
    for tx in _ticks(x0, x1):
        yield (
            f'<line x1="{px(tx):.1f}" y1="{_H - _MB}" x2="{px(tx):.1f}" '
            f'y2="{_H - _MB + 5}" stroke="#444"/>'
        )
        yield (
            f'<text x="{px(tx):.1f}" y="{_H - _MB + 18}" '
            f'text-anchor="middle">{_fmt_tick(tx / sx)}</text>'
        )
    for ty in _ticks(y0, y1):
        yield (
            f'<line x1="{_ML - 5}" y1="{py(ty):.1f}" x2="{_ML}" '
            f'y2="{py(ty):.1f}" stroke="#444"/>'
        )
        yield (
            f'<text x="{_ML - 8}" y="{py(ty) + 4:.1f}" '
            f'text-anchor="end">{_fmt_tick(ty / sy)}</text>'
        )
    if xlabel:
        yield (
            f'<text x="{_W / 2:.0f}" y="{_H - 12}" '
            f'text-anchor="middle">{_esc(xlabel)}</text>'
        )
    if ylabel:
        yield (
            f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_H / 2:.0f})">{_esc(ylabel)}</text>'
        )
    legend_ys = count(_MT + 16, 15)  # one row per labelled trace
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        keep = np.isfinite(xs) & np.isfinite(ys)
        pts = np.column_stack((px(xs[keep] * sx), py(ys[keep] * sy)))
        points = " ".join(["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist())
        yield f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.4"/>'
        if label:
            ly = next(legend_ys)
            yield (
                f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            yield f'<text x="{_W - _MR - 90}" y="{ly}">{_esc(label)}</text>'
    yield "</svg>"


@np.errstate(all="ignore")
def waterfall_plot(path, x, snapshots, title=""):
    """Snapshots (t, values) drawn as offset traces, early times at the bottom.

    The traces share one scale, the largest |value| among the finite samples.
    A trace's offset is monotone in the value, so the offsets of a row's
    extremes are the extremes of its trace, bit for bit.
    """
    snapshots = [(t, np.asarray(vals, float)) for t, vals in snapshots]
    if not snapshots:
        raise ValueError("no snapshots to plot")
    x = np.asarray(x, float)
    extremes = np.array([_extent((vals,)) for _, vals in snapshots])  # rows of (lo, hi)
    amp = float(np.abs(extremes[np.isfinite(extremes)]).max(initial=0.0)) or 1.0
    last = len(snapshots) - 1

    def offset(i, vals):
        return i / max(1, last) + vals / (3.0 * amp)

    y_extent = _extent((offset(np.arange(len(snapshots))[:, None], extremes),))
    series = (
        (f"t={t:.3f}" if i in (0, last) else "", x, offset(i, vals))
        for i, (t, vals) in enumerate(snapshots)
    )
    _write(path, series, _extent((x,)), y_extent, title, "x", "time (offset)")


def _esc(text):
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
