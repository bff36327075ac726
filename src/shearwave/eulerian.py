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
steps the velocity form; the momentum form is its cross-check.  Each
equation sums its quadratic products at the nodes and truncates them
once, above the grid's 2/3-rule ``cutoff``; linear terms stay outside.
The velocity form works on the rfft modes of its rows, the state the
time stepper carries: A = 1 - D^2 and A^{-1} D are diagonal there, so
one batched irfft and one batched rfft per call are all it needs.  The
momentum form builds Fields, as a reference.
"""

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .spectral import (
    Field,
    _SeriesAt,
    dealias,
    derivative,
    helmholtz_apply,
    helmholtz_invert,
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

    params supplies the vorticity, a and kappa, as for every right-hand side.
    """
    m, rho = state.m, state.rho
    u = state.velocity()
    u_x, m_x, rho_x = derivative(u), derivative(m), derivative(rho)
    quadratic = (
        params.a * u_x.values * m.values
        + u.values * m_x.values
        + params.kappa * rho.values * rho_x.values
    )
    density = u.values * rho_x.values + (params.a - 1.0) * u_x.values * rho.values
    dm = params.alpha * u_x - dealias(Field(m.grid, quadratic))
    return dm, -dealias(Field(m.grid, density))


def rhs_u_form(grid, hat: np.ndarray, params: ModelParams) -> np.ndarray:
    """Modes of the tendencies (dm, drho) from the rfft modes of the rows (m, rho).

    dm = A(du) = alpha u_x + (1/2) D de(P) - A de(u u_x), with P the
    source's products, each multiplier read from the grid's tables.  One
    irfft gives u, u_x, rho, rho_x and one rfft the modes of the products.
    A third row, the displacement of a tracked flow map, follows
    phi_t = u o phi, the series of u summed at phi(x_j).  It raises
    NonDiffeomorphismError once the map has folded (phi_x <= 0 at a node).
    """
    spec = hat[:, None] * grid._uform_in[: len(hat)]  # (u, u_x), (rho, rho_x), (disp, disp_x)
    u, u_x, rho, rho_x, *disp = np.fft.irfft(spec.reshape(-1, hat.shape[1]), grid.n)
    drho = (1.0 - params.a) * u_x * rho - u * rho_x
    products = [u * u_x, source_argument(u, rho, u_x, params), drho]
    if disp:
        require_orientation(1.0 + disp[1])
        products.append(_SeriesAt(grid.n, grid.nodes + disp[0])(spec[0, 0]))
    out = np.fft.rfft(products)  # rows 1 and 2 become dm and drho in place
    grid.dealias_modes(out[:3])  # the tracked row stays whole
    out[1] = 0.5 * grid._deriv_mult * out[1] + params.alpha * spec[0, 1] - grid._helmholtz_mult * out[0]
    return out[1:]


def forms_equivalent(u: Field, rho: Field, params: ModelParams) -> float:
    """Scaled sup-norm gap between A(du) and dm for the same state.

    Returns max|A(du) - dm| / (1 + max|dm|); small values certify that
    the two forms describe the same evolution.
    """
    m = helmholtz_apply(u)
    hat = np.stack([m.coeffs, rho.coeffs])
    dm_u = np.fft.irfft(rhs_u_form(u.grid, hat, params)[0], u.grid.n)
    dm, _ = rhs_m_form(EulerianState(m, rho, params.alpha), params)
    gap = np.max(np.abs(dm_u - dm.values))
    return float(gap / (1.0 + np.max(np.abs(dm.values))))
