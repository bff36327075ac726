"""Model parameters, the linear wave speed and the derivation constants.

The family is parametrized by (a, alpha, kappa): a selects the member of
the family of momentum equations (a = 1 is excluded, the density equation
degenerates there), alpha is the constant background vorticity and
kappa > 0 couples the density gradient into the momentum balance.

The derivation constants (k1, k2, k3, k0, beta0_sq) close the multiscale
expansion around a linear wave of speed c, where c is a root of the
quadratic c^2 - alpha*c - 1 = 0.  The closing relations tie them
together; ``derive_coefficients`` evaluates the closed forms and then
re-checks every relation numerically before returning.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Field, SpectralGrid, TWO_PI

BRANCHES = ("right", "left")

_RESIDUAL_TOL = 1e-12


def burns_speed(alpha: float, branch: str = "right") -> float:
    """Root of c^2 - alpha*c - 1 = 0 for the given branch.

    "right" is the positive root (downstream-running wave), "left" the
    negative one.  Rationalized forms avoid cancellation when alpha and
    the chosen branch have opposite signs.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    disc = math.hypot(alpha, 2.0)
    if branch == "right":
        return 0.5 * (alpha + disc) if alpha >= 0.0 else 2.0 / (disc - alpha)
    return 0.5 * (alpha - disc) if alpha <= 0.0 else -2.0 / (disc + alpha)


@dataclass(frozen=True)
class ModelParams:
    """Family member a, background vorticity alpha, coupling kappa > 0."""

    a: float
    alpha: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.alpha)):
            raise ValueError(f"a and alpha must be finite, got {self.a} and {self.alpha}")
        if self.a == 1.0:
            raise ValueError("a = 1 is excluded: the density equation degenerates")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")


@dataclass(frozen=True)
class DerivedCoefficients:
    """Constants closing the derivation at wave speed c."""

    c: float
    k1: float
    k2: float
    k3: float
    k0: float
    beta0_sq: float


def constraint_residuals(coeffs: DerivedCoefficients, params: ModelParams) -> dict:
    """Residuals of the closing relations; all vanish for exact constants."""
    a, alpha = params.a, params.alpha
    c, k1, k2, k3, k0, b0 = (
        coeffs.c,
        coeffs.k1,
        coeffs.k2,
        coeffs.k3,
        coeffs.k0,
        coeffs.beta0_sq,
    )
    return {
        "wave_speed": c * c - alpha * c - 1.0,
        "k3_ratio": k3 - k1 / (6.0 * (c - alpha)),
        "k1_closure": k1 - (1.0 + alpha * c / 2.0 + k2 / k1),
        "k0_selection": k3 / k1 - alpha / 6.0 + k0 * (c - alpha),
        "beta0_dual": b0 - ((alpha * c - alpha * alpha - 1.0) / (6.0 * (c - alpha) ** 2) + 0.5),
        "beta0_from_k0": b0 - (k0 + 0.5),
    }


def derive_coefficients(params: ModelParams, branch: str = "right") -> DerivedCoefficients:
    """Evaluate the closed-form constants and verify the closing relations.

    Requires a != -1 (k1 has a pole there).  Raises ArithmeticError naming
    params if a constant overflows or divides by zero, or if a residual
    exceeds the verification tolerance, which would indicate a broken
    closed form rather than bad input.
    """
    a, alpha = params.a, params.alpha
    if a == -1.0:
        raise ValueError("a = -1 is excluded: the constants are singular there")
    c = burns_speed(alpha, branch)
    csq = c * c
    try:  # Python float ** overflow and / by zero raise instead of giving inf
        den = (1.0 + csq) * (a + 1.0), 2.0 * (a + 1.0)
        if math.isfinite(csq) and not all(map(math.isfinite, den)):  # float * does not raise
            raise OverflowError("(1 + c^2)(a + 1) or 2(a + 1) overflows")
        k1 = 1.0 / den[0] + csq / (a + 1.0)
        k2 = (1.0 / den[0] + csq * (1.0 - a) / den[1] - 0.5) * k1
        k3 = k1 / (6.0 * (c - alpha))
        beta0_sq = 1.0 / (3.0 * csq * (c - alpha) ** 2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ArithmeticError(f"constants fail for {params}, branch {branch!r}: {exc}") from exc
    k0 = beta0_sq - 0.5
    coeffs = DerivedCoefficients(c=c, k1=k1, k2=k2, k3=k3, k0=k0, beta0_sq=beta0_sq)
    infinite = {name: value for name, value in vars(coeffs).items() if not math.isfinite(value)}
    if infinite:  # a residual check against an infinite scale would pass them
        raise ArithmeticError(f"constants are not finite for {params}: {infinite}")
    scale = 1.0 + abs(c) + c * c + abs(k1) + abs(k2)
    bad = {
        name: r
        for name, r in constraint_residuals(coeffs, params).items()
        if abs(r) > _RESIDUAL_TOL * scale
    }
    if bad:
        raise ArithmeticError(f"closing relations violated for {params}, branch {branch!r}: {bad}")
    return coeffs


def m1p_variant_residuals(coeffs: DerivedCoefficients, params: ModelParams) -> dict:
    """Residuals of both readings of the first-harmonic amplitude relation.

    "factor_two" is the relation as transcribed, with a factor 2 on the
    (a - 2) k1 term.  The closed-form constants do not satisfy it except
    at a = 2: its residual equals c^2 * k1 * (a - 2) identically.
    "factor_one", the variant without the factor 2, vanishes.  Both are
    reported as they are and never asserted.
    """
    a = params.a
    c, k1, k2 = coeffs.c, coeffs.k1, coeffs.k2
    base = (k1 * k1 + 2.0 * k2) / k1
    doubled = k1 * (1.0 + a) - (1.0 - c * c * (base + 2.0 * (a - 2.0) * k1))
    single = k1 * (1.0 + a) - (1.0 - c * c * (base + (a - 2.0) * k1))
    return {"factor_two": doubled, "factor_one": single}


def m1p_residual_table(a_values, alpha_values, branch: str = "right") -> list:
    """Sweep of both residual variants over a grid of (a, alpha)."""
    rows = []
    for a in a_values:
        for alpha in alpha_values:
            params = ModelParams(a=a, alpha=alpha)
            coeffs = derive_coefficients(params, branch)
            variants = m1p_variant_residuals(coeffs, params)
            rows.append(
                {
                    "a": a,
                    "alpha": alpha,
                    "c": coeffs.c,
                    "factor_two": variants["factor_two"],
                    "factor_one": variants["factor_one"],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# initial data


def gaussian_bump(
    grid: SpectralGrid, center: float, width: float, amplitude: float = 1.0
) -> Field:
    """Periodized Gaussian, summed over 7 wrapped images.

    For width <= 1 the omitted images are below 1e-15, so the samples are
    those of a genuinely periodic function at machine precision.
    """
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    x = grid.nodes
    vals = np.zeros(grid.n)
    for image in range(-3, 4):
        d = x - center - TWO_PI * image
        vals += np.exp(-0.5 * (d / width) ** 2)
    return Field(grid, amplitude * vals)


def cosine_mode(grid: SpectralGrid, mode: int, amplitude: float = 1.0) -> Field:
    """amplitude * cos(mode * x); the mode must survive dealiasing."""
    _check_mode(grid, mode)
    return Field(grid, amplitude * np.cos(mode * grid.nodes))


def sine_mode(grid: SpectralGrid, mode: int, amplitude: float = 1.0) -> Field:
    """amplitude * sin(mode * x); the mode must survive dealiasing."""
    _check_mode(grid, mode)
    return Field(grid, amplitude * np.sin(mode * grid.nodes))


def constant_field(grid: SpectralGrid, value: float = 0.0) -> Field:
    return Field(grid, np.full(grid.n, float(value)))


def _check_mode(grid: SpectralGrid, mode: int):
    if mode != int(mode) or mode < 0:
        raise ValueError(f"mode must be a nonnegative integer, got {mode}")
    if mode > grid.cutoff:
        raise ValueError(f"mode {mode} lies beyond the dealiasing cutoff n/3 = {grid.cutoff}")
