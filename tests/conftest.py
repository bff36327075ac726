"""Shared helpers for the test suite."""

import numpy as np

from shearwave import Field, dealias


def band_limited(grid, rng, kmax, amplitude=1.0):
    """Random real field supported on modes |k| <= kmax, sup-norm <= amplitude."""
    x = grid.nodes
    k = np.arange(1, kmax + 1)[:, None]
    decay = 1.0 / (1.0 + k.astype(float)) ** 0.5
    a = rng.standard_normal((kmax, 1)) * decay
    b = rng.standard_normal((kmax, 1)) * decay
    vals = rng.standard_normal() + np.sum(a * np.cos(k * x) + b * np.sin(k * x), axis=0)
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        peak = 1.0
    return Field(grid, amplitude * vals / peak)


def safe_displacement(grid, rng, kmax, slope=0.5):
    """Random displacement rescaled so sup |disp_x| <= slope < 1."""
    from shearwave import derivative

    f = band_limited(grid, rng, kmax)
    steep = np.max(np.abs(derivative(f).values))
    if steep == 0.0:
        steep = 1.0
    return (slope / steep) * f


def multiply_dealiased(f, g):
    """Oracle for one 2/3-rule-truncated product: the package truncates a
    whole sum of products once, and the tests compare it with per-product
    truncation."""
    return dealias(Field(f.grid, f.values * g.values))


def sup_diff(f, g):
    return float(np.max(np.abs(f.values - g.values)))
