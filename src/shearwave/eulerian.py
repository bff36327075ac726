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
"""

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .spectral import (
    Field,
    ainv_d,
    dealias,
    derivative,
    helmholtz_apply,
    helmholtz_invert,
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


def source_argument(
    u: Field, rho: Field, u_x: Field, alpha: float, params: ModelParams
) -> Field:
    """2 alpha u + de(-kappa rho^2 + (a - 3) u_x^2 - a u^2), truncated once.

    Shared between the velocity form and the flow-map spray so that the
    two agree term by term when the flow map is the identity.
    """
    v, r, v_x = u.values, rho.values, u_x.values
    quadratic = -params.kappa * r * r + (params.a - 3.0) * v_x * v_x - params.a * v * v
    return 2.0 * alpha * u + dealias(Field(u.grid, quadratic))


def _density_rhs(u: Field, u_x: Field, rho: Field, rho_x: Field, a: float) -> Field:
    return -dealias(
        Field(u.grid, u.values * rho_x.values + (a - 1.0) * u_x.values * rho.values)
    )


def rhs_m_form(state: EulerianState, params: ModelParams):
    """(dm, drho) from the momentum form, the reference for the velocity form.

    The vorticity is read from the state; params supplies a and kappa.
    """
    m, rho = state.m, state.rho
    u = helmholtz_invert(m)
    u_x = derivative(u)
    m_x = derivative(m)
    rho_x = derivative(rho)
    quadratic = (
        params.a * u_x.values * m.values
        + u.values * m_x.values
        + params.kappa * rho.values * rho_x.values
    )
    dm = state.alpha * u_x - dealias(Field(m.grid, quadratic))
    return dm, _density_rhs(u, u_x, rho, rho_x, params.a)


def rhs_u_form(u: Field, rho: Field, alpha: float, params: ModelParams):
    """(du, drho) from the velocity form, the one run() steps."""
    u_x = derivative(u)
    rho_x = derivative(rho)
    advection = dealias(Field(u.grid, u.values * u_x.values))
    du = 0.5 * ainv_d(source_argument(u, rho, u_x, alpha, params)) - advection
    return du, _density_rhs(u, u_x, rho, rho_x, params.a)


def forms_equivalent(u: Field, rho: Field, alpha: float, params: ModelParams) -> float:
    """Scaled sup-norm gap between A(du) and dm for the same state.

    Returns max|A(du) - dm| / (1 + max|dm|); small values certify that
    the two forms describe the same evolution.
    """
    du, _ = rhs_u_form(u, rho, alpha, params)
    dm, _ = rhs_m_form(EulerianState(helmholtz_apply(u), rho, alpha), params)
    gap = np.max(np.abs(helmholtz_apply(du).values - dm.values))
    return float(gap / (1.0 + np.max(np.abs(dm.values))))
