"""Flow-map (Lagrangian) formulation as a geodesic spray.

The configuration is (phi, f, s) with phi a circle diffeomorphism, f a
periodic function and s a scalar; the velocities are (v, sigma, alpha).
Along solutions phi follows the fluid flow of u, v = u o phi,
sigma = rho o phi, f integrates sigma and s integrates alpha.  The spray
reads

    phi_t   = v
    f_t     = sigma
    s_t     = alpha
    v_t     = (1/2) [R_phi o A^{-1} D o R_{phi^-1}]
                 (2 alpha v - kappa sigma^2 + (a - 3) (v_x/phi_x)^2 - a v^2)
    sigma_t = (1 - a) sigma v_x / phi_x
    alpha_t = 0

where R_phi is composition with phi from the right.  Pointwise division
by phi_x is exact at the nodes.  The conjugated operator needs no
phi^{-1}: the change of variables z = phi(y) turns the modes of
w o phi^{-1} into a sum over the images phi(x_j) weighted by phi_x, and
the smoothed series is summed back at those same images (see
:func:`spectral.conjugated_ainv_d`).  Only the conversion to the fixed
frame inverts the map.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .eulerian import EulerianState, source_argument
from .model import ModelParams
from .spectral import (
    DiffeoMap,
    Field,
    compose,
    conjugated_ainv_d,
    dealias,
    derivative,
    helmholtz_apply,
    helmholtz_invert,
    invert_diffeo,
)


@dataclass(frozen=True)
class LagrangianState:
    """Flow map phi, accumulated density f, drift s; velocities v, sigma, alpha."""

    phi: DiffeoMap
    f: Field
    s: float
    v: Field
    sigma: Field
    alpha: float


class SprayDerivative(NamedTuple):
    dphi: Field
    df: Field
    ds: float
    dv: Field
    dsigma: Field
    dalpha: float


def spray_rhs(state: LagrangianState, params: ModelParams) -> SprayDerivative:
    """Right-hand side of the spray, evaluated at the nodes without inverting phi."""
    phi = state.phi
    grid = phi.grid
    v, sigma = state.v, state.sigma
    v_x = derivative(v)
    slope = Field(grid, v_x.values / phi.deriv_values)  # u_x o phi at the nodes
    w = source_argument(v, sigma, slope, state.alpha, params)
    dv = 0.5 * conjugated_ainv_d(phi, w)
    dsigma = (1.0 - params.a) * dealias(
        Field(grid, sigma.values * v_x.values / phi.deriv_values)
    )
    return SprayDerivative(
        dphi=v, df=sigma, ds=state.alpha, dv=dv, dsigma=dsigma, dalpha=0.0
    )


def to_eulerian(state: LagrangianState) -> EulerianState:
    """Push the velocities to the fixed frame: u = v o phi^{-1}, rho = sigma o phi^{-1}."""
    phi_inv = invert_diffeo(state.phi)
    u = compose(state.v, phi_inv)
    rho = compose(state.sigma, phi_inv)
    return EulerianState(m=helmholtz_apply(u), rho=rho, alpha=state.alpha)


def from_eulerian(state: EulerianState) -> LagrangianState:
    """Seed the flow-map formulation at phi = id, f = 0, s = 0."""
    grid = state.m.grid
    zero = Field(grid, [0.0] * grid.n)
    return LagrangianState(
        phi=DiffeoMap.identity(grid),
        f=zero,
        s=0.0,
        v=helmholtz_invert(state.m),
        sigma=state.rho,
        alpha=state.alpha,
    )
