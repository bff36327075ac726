"""Traveling waves: an exact nonlinear solution as the solver's oracle.

A wave u = U(x - c t) with w = c - U > 0 solves the momentum form

    m_t = alpha u_x - a u_x m - u m_x - kappa rho rho_x,
    rho_t = -u rho_x - (a - 1) u_x rho,

when the density equation gives rho = K w^(1-a) and the momentum equation,
multiplied by w^(a-1) and integrated once, gives the profile equation

    U - U'' = alpha/a + kappa K^2 w^(1-2a) + B w^(-a)        (a not 0 or 1).

Mode 1 branches from U = 0 at K^2 = (2 + alpha/c) c^(2a) / (kappa (a - 1)).
:func:`traveling_profile` solves for (U, B) at that K by Newton collocation
(Boyd, *Chebyshev and Fourier Spectral Methods*, 2001), with the cos x
amplitude fixed at eps and the sin x amplitude at 0, which fixes the phase.
The exact state at T is the profile shifted by c T.

The oracle derives from the same momentum form that ``rhs_m_form``
implements, so it checks the solver, not the transcription of the paper's
equations.  u is compared in both formulations and m = A u in the Eulerian
one only: the flow map's m carries roundoff amplified by 1 + k^2.
"""

from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np
import pytest

from shearwave import (
    EulerianState,
    Field,
    ModelParams,
    SpectralGrid,
    StepControl,
    derivative,
    helmholtz_apply,
    rhs_m_form,
    run,
)

PROFILE_N = 128  # the collocation points; each run's grid size divides it
FLOOR = 1e-13  # where the errors of the tight-tolerance runs sit
TIGHT = StepControl(abs_tol=1e-12, rel_tol=1e-12)
FORMULATIONS = ("eulerian", "lagrangian")


@dataclass(frozen=True)
class TravelingWave:
    """The profile U at the PROFILE_N collocation points, and its constants."""

    a: float
    alpha: float
    kappa: float
    c: float
    K: float
    B: float
    U: np.ndarray
    steps: int

    @property
    def params(self) -> ModelParams:
        return ModelParams(a=self.a, alpha=self.alpha, kappa=self.kappa)

    def residual(self) -> float:
        """max |U - U'' - alpha/a - kappa K^2 w^(1-2a) - B w^(-a)| at the points."""
        return float(np.max(np.abs(_profile_residual(self, self.U, self.B))))

    def density(self, U) -> np.ndarray:
        return self.K * (self.c - U) ** (1.0 - self.a)

    def velocity(self, n: int, t: float) -> np.ndarray:
        """The exact u at the nodes of an n-point grid at time t: U(x - c t)."""
        k = np.arange(PROFILE_N // 2 + 1)
        shifted = np.fft.irfft(np.fft.rfft(self.U) * np.exp(-1j * k * self.c * t), PROFILE_N)
        return shifted[:: PROFILE_N // n]

    def initial_state(self, n: int) -> EulerianState:
        grid = SpectralGrid(n)
        U = self.U[:: PROFILE_N // n]
        m = helmholtz_apply(Field(grid, U))
        return EulerianState(m, Field(grid, self.density(U)), self.alpha)


def _profile_residual(wave, U, B):
    """The profile equation's residual at the points, U'' taken by the FFT."""
    k = np.arange(PROFILE_N // 2 + 1)
    a, w = wave.a, wave.c - U
    helmholtz_U = np.fft.irfft((1.0 + k * k) * np.fft.rfft(U), PROFILE_N)
    source = wave.alpha / a + wave.kappa * wave.K**2 * w ** (1.0 - 2.0 * a) + B * w ** (-a)
    return helmholtz_U - source


def traveling_profile(a, alpha, kappa, c, eps, tol=2e-13, max_steps=40) -> TravelingWave:
    """The mode-1 traveling wave of cos x amplitude eps, by damped Newton.

    Unknowns are U at the points and B; the equations are the residual at
    the points and the cos x and sin x amplitudes, solved in the least
    squares sense with the analytic Jacobian.  A step is halved until
    w = c - U stays positive.  Stops once the residual is at most tol.
    """
    n = PROFILE_N
    x = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(n // 2 + 1)
    helmholtz = np.fft.irfft((1.0 + k * k)[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    amplitudes = np.stack([np.cos(x), np.sin(x)]) * (2.0 / n)
    K = np.sqrt((2.0 + alpha / c) * c ** (2 * a) / (kappa * (a - 1.0)))
    B = -(c**a) * (alpha / a + kappa * K**2 * c ** (1.0 - 2.0 * a))  # at the branch point
    start = TravelingWave(a, alpha, kappa, c, K, B, eps * np.cos(x), 0)
    U = start.U
    for steps in range(max_steps + 1):
        r = _profile_residual(start, U, B)
        if np.max(np.abs(r)) <= tol:
            return replace(start, U=U, B=B, steps=steps)
        w = c - U
        jac = np.zeros((n + 2, n + 1))
        slope = kappa * K**2 * (1.0 - 2.0 * a) * w ** (-2.0 * a) - a * B * w ** (-a - 1.0)
        jac[:n, :n] = helmholtz + np.diag(slope)
        jac[:n, n] = -(w ** (-a))
        jac[n:, :n] = amplitudes
        target = np.concatenate([r, amplitudes @ U - [eps, 0.0]])
        step = np.linalg.lstsq(jac, -target, rcond=None)[0]
        damping = 1.0
        while np.min(w - damping * step[:n]) <= 0.0:
            damping *= 0.5
        U, B = U + damping * step[:n], B + damping * step[n]
    raise AssertionError(f"Newton stalled at residual {np.max(np.abs(r)):.3e}")


def final_state(wave, n, formulation, stepper="adaptive", control=TIGHT, T=1.0):
    """The fixed-frame state after a run to T from the wave at t = 0."""
    outcome = run(
        wave.initial_state(n),
        wave.params,
        T,
        control=control,
        formulation=formulation,
        snapshot_every=T,
        stepper=stepper,
    )
    assert outcome.status == "completed"
    t, state = outcome.trajectory[-1]
    assert t == T
    return state


def run_error(wave, n, formulation, stepper="adaptive", control=TIGHT, T=1.0) -> float:
    """max |u - U(x - c T)| at the nodes after a run to T."""
    state = final_state(wave, n, formulation, stepper, control, T)
    return float(np.max(np.abs(state.velocity().values - wave.velocity(n, T))))


# (a, alpha, kappa, c): the main wave first, then three more members of the family
FAMILY = ((2.0, 0.5, 1.0, 2.0), (3.0, 0.5, 1.3, 2.0), (1.5, -0.4, 0.7, 2.0), (2.0, 1.0, 1.0, 2.5))


@pytest.fixture(scope="module", params=FAMILY, ids=("main", "a=3", "a=1.5", "c=2.5"))
def member(request):
    return traveling_profile(*request.param, eps=0.1)


@pytest.fixture(scope="module")
def wave():
    return traveling_profile(*FAMILY[0], eps=0.1)


class TestProfile:
    def test_residual_and_positive_density(self, member):
        assert member.residual() <= 2e-13
        assert member.steps <= 10
        assert np.min(member.c - member.U) > 0.0
        assert np.min(member.density(member.U)) > 0.0
        # the cos x amplitude is eps and the phase is fixed
        modes = np.fft.rfft(member.U) * (2.0 / PROFILE_N)
        assert modes[1] == pytest.approx(0.1, abs=1e-15)

    def test_main_wave_constants(self, wave):
        assert wave.K == 6.0
        assert wave.B == pytest.approx(-19.04528368, abs=1e-8)

    def test_is_a_traveling_wave_of_the_momentum_form(self, wave):
        # dm = -c m_x and drho = -c rho_x at t = 0, to rounding
        state = wave.initial_state(64)
        dm, drho = rhs_m_form(state, wave.params)
        for got, row in ((dm, state.m), (drho, state.rho)):
            want = -wave.c * derivative(row).values
            assert np.max(np.abs(got.values - want)) <= 1e-11 * (1.0 + np.max(np.abs(want)))


class TestSolverMeetsTheWave:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_rk4_is_fourth_order(self, wave, formulation):
        # 1.2e-11 / 9.2e-12 at dt = 4e-3, a sixteenth of that at 2e-3, and
        # the roundoff floor at 1e-3
        errs = [
            run_error(wave, 64, formulation, "rk4", StepControl(dt=dt))
            for dt in (4e-3, 2e-3, 1e-3)
        ]
        assert errs[0] < 3e-11, errs
        ratios = [coarse / fine for coarse, fine in pairwise(errs) if fine > FLOOR]
        assert ratios and all(13.0 < ratio < 19.0 for ratio in ratios), errs
        assert errs[-1] < 2.0 * FLOOR, errs

    def test_eulerian_momentum_meets_the_wave(self, wave):
        # max |m - A U(x - c T)| measured 1.66e-13, where u errs by 4.6e-14
        state = final_state(wave, 64, "eulerian", "rk4", StepControl(dt=1e-3))
        exact = helmholtz_apply(Field(SpectralGrid(64), wave.velocity(64, 1.0)))
        assert np.max(np.abs(state.m.values - exact.values)) < 5e-13

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_dop853(self, wave, formulation):
        # 7.0e-10 / 8.4e-10 at the default tolerance, 8e-13 / 3e-13 at the
        # tight one on n=32; n=64 is a family member's case below
        assert run_error(wave, 64, formulation, control=StepControl()) < 3e-9
        assert run_error(wave, 32, formulation) < 4e-12

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_family_members_at_n64(self, member, formulation):
        # 8e-14 to 2e-13 at the tight tolerance
        assert run_error(member, 64, formulation) < 5.0 * FLOOR

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_spatial_error_drops_from_n32_to_n64(self, formulation):
        # a = 3 carries more modes past the n=32 grid's 2/3 cutoff: 2.9e-11 /
        # 1.2e-11 there, at the floor at n=64
        member = traveling_profile(*FAMILY[1], eps=0.1)
        coarse, fine = (run_error(member, n, formulation) for n in (32, 64))
        assert coarse > 1e-12
        assert coarse > 100.0 * fine


class TestSteeperWave:
    """eps = 0.3: Newton converges quadratically from cos x, in 4 steps, to
    the residual's roundoff floor of 3e-13, which is U'' amplifying the
    roundoff of U's modes by up to (PROFILE_N/2)^2.  The flow map needs the
    larger grid."""

    @pytest.fixture(scope="class")
    def steep(self):
        return traveling_profile(*FAMILY[0], eps=0.3, tol=1e-12)

    def test_profile(self, steep):
        assert steep.residual() <= 1e-12
        assert steep.steps <= 6
        assert np.min(steep.density(steep.U)) > 0.0

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_spatial_error_drops_by_1e4_from_n32_to_n64(self, steep, formulation):
        # 2.1e-7 / 3.3e-7 at n=32, 1.5e-13 / 1.2e-11 at n=64
        coarse, fine = (run_error(steep, n, formulation) for n in (32, 64))
        assert coarse > 1e-8
        assert coarse > 1e4 * fine
