"""Eulerian right-hand sides in momentum and velocity form.

State is the pair (m, rho) with m = A u = u - u_xx, plus the vorticity
alpha carried along as a constant third component.  The paper writes the
system in momentum form,

    m_t = alpha u_x - a u_x m - u m_x - kappa rho rho_x,

and the well-posedness argument uses the velocity form obtained by
inverting A and absorbing the commutator terms into a gradient,

    u_t = -u u_x + (1/2) A^{-1} D (2 alpha u - kappa rho^2
                                   + (a - 3) u_x^2 - a u^2).

Both advance the density by rho_t = -u rho_x - (a - 1) u_x rho.  run()
steps the velocity form; the momentum form is its cross-check.  The
2/3-rule truncation is linear, so each equation sums its quadratic
products at the nodes and truncates once; linear terms stay outside.
The velocity form works on nodal rows with four batched real transforms;
the momentum form builds Fields, as a reference.
"""

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .spectral import (
    Field,
    dealias,
    derivative,
    helmholtz_apply,
    helmholtz_invert,
    image_series,
    require_orientation,
)


@dataclass(frozen=True)
class EulerianState:
    """Momentum density m, mass density rho, constant vorticity alpha."""

    m: Field
    rho: Field
    alpha: float

    def velocity(self) -> Field:
        """u = A^{-1} m."""
        return helmholtz_invert(self.m)


def source_argument(u, rho, u_x, params: ModelParams) -> np.ndarray:
    """Products -kappa rho^2 + (a - 3) u_x^2 - a u^2 at the nodes, untruncated.

    The source is 2 alpha u plus these products truncated once.  Shared
    between the velocity form and the flow-map spray so that the two agree
    term by term when the flow map is the identity.
    """
    return -params.kappa * rho * rho + (params.a - 3.0) * u_x * u_x - params.a * u * u


def rhs_m_form(state: EulerianState, params: ModelParams):
    """(dm, drho) from the momentum form, the reference for the velocity form.

    The vorticity is read from the state; params supplies a and kappa.
    """
    m, rho = state.m, state.rho
    u = helmholtz_invert(m)
    u_x, m_x, rho_x = derivative(u), derivative(m), derivative(rho)
    quadratic = (
        params.a * u_x.values * m.values
        + u.values * m_x.values
        + params.kappa * rho.values * rho_x.values
    )
    density = u.values * rho_x.values + (params.a - 1.0) * u_x.values * rho.values
    dm = state.alpha * u_x - dealias(Field(m.grid, quadratic))
    return dm, -dealias(Field(m.grid, density))


def rhs_u_form(grid, rows: np.ndarray, alpha: float, params: ModelParams) -> np.ndarray:
    """Tendencies (dm, drho) of the nodal rows (m, rho) from the velocity form.

    dm = A(du) = (1/2) D S - A de(u u_x) with S the source, A applied as a
    multiplier.  A third row, the displacement of a tracked flow map, follows
    phi_t = u o phi: the series of u summed at phi(x_j).  It raises
    NonDiffeomorphismError once the map has folded (phi_x <= 0 at a node).
    """
    n, ik, keep = grid.n, grid._deriv_mult, grid._keep
    hat = np.fft.rfft(rows)
    hat[0] /= grid._helmholtz_mult  # the row of m becomes u
    u_hat = hat[0]
    u, u_x, rho_x, *disp_x = np.fft.irfft(np.vstack([u_hat, ik * hat]), n)
    rho = rows[1]
    transport = u * rho_x + (params.a - 1.0) * u_x * rho
    products = [u * u_x, source_argument(u, rho, u_x, params), transport]
    adv_hat, quad_hat, transport_hat = keep * np.fft.rfft(products)
    source_hat = 2.0 * alpha * u_hat + quad_hat
    dm = 0.5 * ik * source_hat - grid._helmholtz_mult * adv_hat
    out = np.fft.irfft(np.stack([dm, -transport_hat]), n)
    if not disp_x:
        return out
    require_orientation(1.0 + disp_x[0])
    return np.vstack([out, image_series(grid, rows[2])(u_hat)])


def forms_equivalent(u: Field, rho: Field, alpha: float, params: ModelParams) -> float:
    """Scaled sup-norm gap between A(du) and dm for the same state.

    Returns max|A(du) - dm| / (1 + max|dm|); small values certify that
    the two forms describe the same evolution.
    """
    m = helmholtz_apply(u)
    dm_u = rhs_u_form(u.grid, np.stack([m.values, rho.values]), alpha, params)[0]
    dm, _ = rhs_m_form(EulerianState(m, rho, alpha), params)
    gap = np.max(np.abs(dm_u - dm.values))
    return float(gap / (1.0 + np.max(np.abs(dm.values))))
