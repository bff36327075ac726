"""Flow-map (Lagrangian) formulation as a geodesic spray.

The configuration is (phi, f, s) with phi a circle diffeomorphism, f a
periodic function and s a scalar; the velocities are (v, sigma, alpha).
Along solutions phi follows the fluid flow of u, v = u o phi and
sigma = rho o phi.  The spray reads

    phi_t   = v
    f_t     = sigma
    s_t     = alpha
    v_t     = (1/2) [R_phi o A^{-1} D o R_{phi^-1}]
                 (2 alpha v - kappa sigma^2 + (a - 3) (v_x/phi_x)^2 - a v^2)
    sigma_t = (1 - a) sigma v_x / phi_x
    alpha_t = 0

where R_phi is composition with phi from the right.  f and s are cyclic
coordinates: no right-hand side reads them, so f is the time integral of
sigma and s = alpha t, and neither is stepped or stored.  The state is
(phi, v, sigma, alpha).  Pointwise division by phi_x is exact at the
nodes.  The conjugated operator needs no phi^{-1}: the change of
variables z = phi(y) turns the modes of w o phi^{-1} into a sum over the
images phi(x_j) weighted by phi_x, and the smoothed series is summed back
at those same images (see :func:`spectral.conjugated_ainv_d`).  Only the
conversion to the fixed frame inverts the map.  The spray works on the
nodal rows of the state with batched real transforms; the states
themselves hold Fields.
"""

from dataclasses import dataclass

import numpy as np

from .eulerian import EulerianState, source_argument
from .model import ModelParams
from .spectral import (
    DiffeoMap,
    Field,
    compose,
    conjugated_sums,
    helmholtz_apply,
    helmholtz_invert,
    invert_diffeo,
    require_orientation,
)


@dataclass(frozen=True)
class LagrangianState:
    """Flow map phi and the velocities v, sigma, alpha."""

    phi: DiffeoMap
    v: Field
    sigma: Field
    alpha: float


def spray_rhs(grid, rows: np.ndarray, alpha: float, params: ModelParams) -> np.ndarray:
    """Tendencies (v, dv, dsigma) of the nodal rows (disp, v, sigma).

    Evaluated at the nodes without inverting phi = x + disp.  A map that
    has folded (phi_x <= 0 at a node) raises NonDiffeomorphismError.
    """
    n = grid.n
    disp, v, sigma = rows
    disp_x, v_x = np.fft.irfft(grid._deriv_mult * np.fft.rfft(rows[:2]), n)
    phi_x = require_orientation(1.0 + disp_x)
    slope = v_x / phi_x  # u_x o phi at the nodes
    products = [source_argument(v, sigma, slope, params), sigma * slope]
    quadratic, density = np.fft.irfft(grid._keep * np.fft.rfft(products), n)
    dv = 0.5 * conjugated_sums(grid, disp, phi_x, 2.0 * alpha * v + quadratic)
    return np.stack([v, dv, (1.0 - params.a) * density])


def to_eulerian(state: LagrangianState) -> EulerianState:
    """Push the velocities to the fixed frame: u = v o phi^{-1}, rho = sigma o phi^{-1}."""
    phi_inv = invert_diffeo(state.phi)
    u = compose(state.v, phi_inv)
    rho = compose(state.sigma, phi_inv)
    return EulerianState(m=helmholtz_apply(u), rho=rho, alpha=state.alpha)


def from_eulerian(state: EulerianState) -> LagrangianState:
    """Seed the flow-map formulation at phi = id."""
    return LagrangianState(
        phi=DiffeoMap.identity(state.m.grid),
        v=helmholtz_invert(state.m),
        sigma=state.rho,
        alpha=state.alpha,
    )
