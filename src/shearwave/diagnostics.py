"""Conserved functionals, norms and breakdown monitors.

The quantities tracked per snapshot:

* the a = 2 metric energy  int u_x^2 + int (u - alpha/2)^2 + alpha^2/2
  + kappa int rho^2, conserved by the flow when a = 2 for any alpha and
  kappa;
* the mean of u, conserved for every member of the family;
* the Casimir  int rho^{1/(a-1)}, conserved whenever rho stays positive,
  recorded as its power mean so that it stays finite near a = 1;
* min rho and max |u_x| (the breakdown monitor);
* squared Sobolev pairs  ||m||_{H^k}^2 + ||rho||_{H^{k+1}}^2;
* for flow-map runs, the sup-norm drift of sigma * phi_x^{a-1}, which is
  a pointwise invariant of the transport equation.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eulerian import EulerianState
from .lagrangian import LagrangianState
from .model import ModelParams
from .spectral import DiffeoMap, Field, compose, derivative, sobolev_sq


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One snapshot's diagnostics; its fields, in order, are the CSV's DIAG_COLUMNS."""

    t: float
    energy_a2: float
    mean_u: float
    casimir: Optional[float]
    min_rho: float
    max_ux: float
    h0: float
    h1: float
    h2: float
    lemma_deviation: Optional[float] = None


def energy_a2(u: Field, rho: Field, alpha: float, kappa: float) -> float:
    """The a = 2 metric energy; a conservation law only at a = 2."""
    grid = u.grid
    ux = derivative(u).values
    return (
        grid.integrate(ux * ux)
        + grid.integrate((u.values - alpha / 2.0) ** 2)
        + alpha * alpha / 2.0
        + kappa * grid.integrate(rho.values * rho.values)
    )


def casimir(rho: Field, a: float) -> Optional[float]:
    """Power mean ((1/2pi) int rho^p dx)^{1/p}, p = 1/(a-1); None unless rho > 0.

    A monotone function of the Casimir int rho^p, so conserved exactly
    when it is.  The sum is formed in log space (log-sum-exp of p log rho),
    so it stays finite as |p| grows near a = 1, and a constant density is
    its own mean.
    """
    if a == 1.0:
        raise ValueError("the Casimir exponent is undefined at a = 1")
    vals = rho.values
    if float(np.min(vals)) <= 0.0:
        return None
    scaled = np.log(vals) / (a - 1.0)  # p log rho
    top = float(np.max(scaled))
    log_mean = top + float(np.log(np.mean(np.exp(scaled - top))))
    return float(np.exp(log_mean * (a - 1.0)))


def mean_velocity(u: Field) -> float:
    return u.grid.integrate(u.values)


def sobolev_norm_pair(m: Field, rho: Field, k: int) -> float:
    """Squared pair norm ||m||_{H^k}^2 + ||rho||_{H^{k+1}}^2.

    Spectral weights (1 + j^2)^s with the L^2 normalization matching the
    integral over the period; meaningful up to the dealiasing cutoff.
    """
    return sobolev_sq(m.grid, m.coeffs, k) + sobolev_sq(rho.grid, rho.coeffs, k + 1)


def lemma_invariant(state: LagrangianState, a: float) -> Field:
    """sigma * phi_x^{a-1} at the nodes; constant in time along solutions."""
    phi = state.phi
    vals = state.sigma.values * phi.deriv_values ** (a - 1.0)
    return Field(phi.grid, vals)


def transported_density_invariant(rho: Field, phi: DiffeoMap, a: float) -> Field:
    """The same invariant built from Eulerian rho and a tracked flow map."""
    pulled = compose(rho, phi)
    return Field(phi.grid, pulled.values * phi.deriv_values ** (a - 1.0))


def make_record(
    t: float,
    state: EulerianState,
    params: ModelParams,
    max_ux: float,
    lemma_deviation: Optional[float] = None,
) -> DiagnosticsRecord:
    """Assemble the per-snapshot record from an Eulerian view of the state.

    max_ux is the stepping scheme's slope monitor, passed through as
    computed; for a flow-map run it is the sup over the Lagrangian nodes.
    """
    u = state.velocity()
    rho = state.rho
    return DiagnosticsRecord(
        t=t,
        energy_a2=energy_a2(u, rho, state.alpha, params.kappa),
        mean_u=mean_velocity(u),
        casimir=casimir(rho, params.a),
        min_rho=float(np.min(rho.values)),
        max_ux=max_ux,
        h0=sobolev_norm_pair(state.m, rho, 0),
        h1=sobolev_norm_pair(state.m, rho, 1),
        h2=sobolev_norm_pair(state.m, rho, 2),
        lemma_deviation=lemma_deviation,
    )
