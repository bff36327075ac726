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
at those same images (see :meth:`spectral._SeriesAt.conjugated`).  The
conversion to the fixed frame takes one type-1 sum over the 2n images
of the nodes and of the midpoints, where the rows are resampled by zero
padding, so nothing in the formulation inverts the map.  The spray maps
the rfft modes of the rows (disp, v, sigma) to those of their tendencies,
as the velocity form does; states hold Fields.
"""

from dataclasses import dataclass

import numpy as np

from .eulerian import EulerianState, source_argument
from .model import ModelParams
from .spectral import (
    DiffeoMap,
    Field,
    _SeriesAt,
    helmholtz_apply,
    require_orientation,
)


@dataclass(frozen=True)
class LagrangianState:
    """Flow map phi and the velocities v, sigma, alpha."""

    phi: DiffeoMap
    v: Field
    sigma: Field
    alpha: float


def spray_rhs(grid, hat: np.ndarray, params: ModelParams) -> np.ndarray:
    """Modes of the tendencies (v, dv, dsigma) from the rfft modes of (disp, v, sigma).

    Four batched real transforms around nodal sums that need no inverse of
    phi = x + disp; the v row is returned as it came in.  A map that has
    folded (phi_x <= 0 at a node) raises NonDiffeomorphismError.
    """
    n = grid.n
    spec = hat[[0, 1, 2, 0, 1]]
    spec[3:] *= grid._deriv_mult
    disp, v, sigma, phi_x, v_x = np.fft.irfft(spec, n)
    phi_x += 1.0
    slope = v_x / require_orientation(phi_x)  # u_x o phi at the nodes
    products = np.fft.rfft([source_argument(v, sigma, slope, params), sigma * slope])
    products[:, grid.cutoff + 1 :] = 0.0
    source = np.fft.irfft(products[0], n)
    source += 2.0 * params.alpha * v
    out = np.empty_like(hat)
    out[0] = hat[1]
    series = _SeriesAt(n, grid.nodes + disp)
    out[1] = np.fft.rfft(0.5 * series.conjugated(source * phi_x, grid._ainv_d_mult))
    np.multiply(products[1], 1.0 - params.a, out=out[2])
    return out


def to_eulerian(state: LagrangianState) -> EulerianState:
    """Push the velocities to the fixed frame: u = v o phi^{-1}, rho = sigma o phi^{-1}.

    No inverse is formed.  Substituting z = phi(y) in the Fourier integral
    of v o phi^{-1} gives its modes as sum_j v(y_j) phi_x(y_j)
    exp(-i k phi(y_j)), the trapezoid rule on a smooth periodic integrand;
    likewise for sigma.  On the n nodes that rule aliases on coarse grids,
    so it runs on 2n points: the nodes and the midpoints.  One inverse rfft
    of the zero-padded modes resamples disp, v, sigma and disp_x there
    band-limited, and one 2n-point adjoint sum, halved, has the n-point
    normalisation.  The computed Nyquist mode is not real, so the fields
    are built from the values of the inverse rfft.  At phi = id the sums
    reduce to v and sigma.
    """
    phi = state.phi
    if phi.is_identity():
        return EulerianState(m=helmholtz_apply(state.v), rho=state.sigma, alpha=state.alpha)
    grid, disp_hat = phi.grid, phi.displacement.coeffs
    n = grid.n
    hat = np.stack([disp_hat, state.v.coeffs, state.sigma.coeffs, 1j * grid.wavenumbers * disp_hat])
    hat[:, -1] *= 0.5  # the n-point Nyquist mode stays a cosine
    # irfft pads the modes with zeros: (disp, v, sigma, disp_x) at the nodes and midpoints
    disp, v, sigma, disp_x = 2.0 * np.fft.irfft(hat, 2 * n)
    # at even j, j (h/2) is the node (j/2) h bit for bit, since halving h is exact
    series = _SeriesAt(n, np.arange(2 * n) * (0.5 * grid.spacing) + disp)
    phi_x = 1.0 + disp_x
    modes = np.stack([series.modes(v * phi_x), series.modes(sigma * phi_x)])
    modes[:, -1] *= 2.0  # +n/2 and -n/2 alias into the one n-point Nyquist mode
    u, rho = (Field(grid, row) for row in np.fft.irfft(0.5 * modes, n))
    return EulerianState(m=helmholtz_apply(u), rho=rho, alpha=state.alpha)


def from_eulerian(state: EulerianState) -> LagrangianState:
    """Seed the flow-map formulation at phi = id."""
    return LagrangianState(
        phi=DiffeoMap.identity(state.m.grid),
        v=state.velocity(),
        sigma=state.rho,
        alpha=state.alpha,
    )
