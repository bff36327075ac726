"""Pseudo-spectral laboratory for a two-component wave model over constant shear."""

from .spectral import (
    SpectralGrid,
    Field,
    DiffeoMap,
    GridMismatchError,
    NonDiffeomorphismError,
    derivative,
    helmholtz_apply,
    helmholtz_invert,
    ainv_d,
    ainv_d_factored,
    dealias,
    compose,
)
from .model import (
    ModelParams,
    DerivedCoefficients,
    burns_speed,
    derive_coefficients,
    constraint_residuals,
    m1p_variant_residuals,
    gaussian_bump,
    cosine_mode,
    sine_mode,
    constant_field,
)
from .eulerian import EulerianState, rhs_m_form, rhs_u_form, forms_equivalent
from .lagrangian import (
    LagrangianState,
    spray_rhs,
    to_eulerian,
    from_eulerian,
)
from .diagnostics import (
    DiagnosticsRecord,
    energy_a2,
    casimir,
    mean_velocity,
    sobolev_norm_pair,
    lemma_invariant,
)
from .timestepper import (
    StepControl,
    RunOutcome,
    STATUS_COMPLETED,
    STATUS_BLOWUP,
    STATUS_MESH,
    rk4_step,
    adaptive_step,
    integrate,
    run,
)

__version__ = "0.1.0"
