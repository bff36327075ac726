"""Geodesic flow-map dynamics and conversions to the fixed frame."""

import numpy as np
import pytest

from conftest import band_limited, multiply_dealiased, safe_displacement
from shearwave import (
    DiffeoMap,
    EulerianState,
    Field,
    LagrangianState,
    ModelParams,
    StepControl,
    SpectralGrid,
    ainv_d,
    compose,
    constant_field,
    dealias,
    derivative,
    from_eulerian,
    helmholtz_apply,
    helmholtz_invert,
    rhs_u_form,
    rk4_step,
    run,
    spray_rhs,
    to_eulerian,
)
from shearwave.eulerian import source_argument
from shearwave.spectral import _SeriesAt


def spray_modes(ls):
    """The rfft modes of the rows (disp, v, sigma) of a LagrangianState."""
    return np.stack([ls.phi.displacement.coeffs, ls.v.coeffs, ls.sigma.coeffs])


def spray(ls, params):
    """Nodal rows (dphi, dv, dsigma) of the spray at a LagrangianState."""
    g = ls.v.grid
    return np.fft.irfft(spray_rhs(g, spray_modes(ls), params), g.n)


def random_eulerian(grid, rng, alpha=0.5, amp=0.5):
    u = band_limited(grid, rng, 16, amplitude=amp)
    rho = band_limited(grid, rng, 16, amplitude=amp)
    return EulerianState(m=helmholtz_apply(u), rho=rho, alpha=alpha)


class TestConversions:
    def test_from_eulerian_sits_at_identity(self):
        rng = np.random.default_rng(301)
        g = SpectralGrid(64)
        st = random_eulerian(g, rng)
        ls = from_eulerian(st)
        assert ls.phi.is_identity()
        assert ls.alpha == st.alpha
        assert np.max(np.abs(helmholtz_apply(ls.v).values - st.m.values)) < 1e-12
        assert np.max(np.abs(ls.sigma.values - st.rho.values)) < 1e-13

    def test_roundtrip_through_identity(self):
        rng = np.random.default_rng(302)
        g = SpectralGrid(64)
        st = random_eulerian(g, rng)
        back = to_eulerian(from_eulerian(st))
        assert np.max(np.abs(back.m.values - st.m.values)) < 1e-12
        assert np.max(np.abs(back.rho.values - st.rho.values)) < 1e-13

    def test_to_eulerian_with_rigid_shift(self):
        # v = g(x) carried by phi = x + s means u(x) = g(x - s)
        g = SpectralGrid(128)
        s = 0.55
        phi = DiffeoMap(constant_field(g, s))
        v = Field(g, np.sin(2 * g.nodes))
        sigma = Field(g, np.cos(g.nodes))
        ls = LagrangianState(phi=phi, v=v, sigma=sigma, alpha=0.0)
        st = to_eulerian(ls)
        u = st.velocity()
        assert np.max(np.abs(u.values - np.sin(2 * (g.nodes - s)))) < 1e-12
        assert np.max(np.abs(st.rho.values - np.cos(g.nodes - s))) < 1e-12

    def test_roundtrip_through_curved_map(self):
        rng = np.random.default_rng(303)
        g = SpectralGrid(256)
        st = random_eulerian(g, rng, amp=0.3)
        phi = DiffeoMap(safe_displacement(g, rng, 5, slope=0.3))
        u = st.velocity()
        ls = LagrangianState(
            phi=phi,
            v=compose(u, phi),
            sigma=compose(st.rho, phi),
            alpha=st.alpha,
        )
        back = to_eulerian(ls)
        assert np.max(np.abs(back.velocity().values - u.values)) < 1e-9
        assert np.max(np.abs(back.rho.values - st.rho.values)) < 1e-9


class TestNyquistUnderAGridShift:
    """Under phi = x + j h every path is a shift of the nodes by j, Nyquist mode included."""

    @staticmethod
    def shifted(n, j):
        g = SpectralGrid(n)
        x = g.nodes
        v = np.cos(n // 2 * x) + np.cos(x) + 0.3 * np.sin(3 * x)
        sigma = 1.0 + 0.3 * np.cos(n // 2 * x) + 0.2 * np.sin(2 * x)
        phi = DiffeoMap(constant_field(g, j * g.spacing))
        return g, phi, v, sigma

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("j", [2, 5])
    def test_fixed_frame_view_is_the_shift(self, n, j):
        g, phi, v, sigma = self.shifted(n, j)
        view = to_eulerian(LagrangianState(phi, Field(g, v), Field(g, sigma), 0.0))
        # u(x) = v(x - j h) and rho(x) = sigma(x - j h)
        assert np.max(np.abs(view.velocity().values - np.roll(v, j))) <= 1e-13
        assert np.max(np.abs(view.rho.values - np.roll(sigma, j))) <= 1e-13

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("j", [2, 5])
    def test_composition_and_evaluation_are_the_shift(self, n, j):
        g, phi, v, _ = self.shifted(n, j)
        # (v o phi)(x) = v(x + j h)
        shifted = np.roll(v, -j)
        assert np.max(np.abs(compose(Field(g, v), phi).values - shifted)) <= 1e-13
        at = _SeriesAt(n, g.nodes + j * g.spacing)(Field(g, v).coeffs)
        assert np.max(np.abs(at - shifted)) <= 1e-13


def closed_form_lagrangian(n, disp):
    """Flow-map state of u = exp(sin x), rho = 1 + 0.5 cos x under phi = x + disp(x)."""
    g = SpectralGrid(n)
    y = g.nodes + disp(g.nodes)
    return LagrangianState(
        phi=DiffeoMap(Field(g, disp(g.nodes))),
        v=Field(g, np.exp(np.sin(y))),
        sigma=Field(g, 1.0 + 0.5 * np.cos(y)),
        alpha=0.3,
    )


class TestConversionClosedForm:
    # v = u o phi and sigma = rho o phi sampled in closed form, so the
    # fixed-frame fields are known exactly at the nodes

    def check(self, ls):
        x = ls.phi.grid.nodes
        st = to_eulerian(ls)
        assert st.alpha == ls.alpha
        assert np.max(np.abs(st.velocity().values - np.exp(np.sin(x)))) <= 1e-12
        assert np.max(np.abs(st.rho.values - (1.0 + 0.5 * np.cos(x)))) <= 1e-12

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_curved_map(self, n):
        self.check(closed_form_lagrangian(n, lambda x: 0.4 * np.sin(x) + 0.12 * np.cos(2 * x)))

    def test_strongly_compressed_map(self):
        # min phi_x = 0.01 at x = pi
        ls = closed_form_lagrangian(256, lambda x: 0.99 * np.sin(x))
        assert np.min(ls.phi.deriv_values) == pytest.approx(0.01, abs=1e-12)
        self.check(ls)


class TestConversionNewtonOracle:
    # phi = x + 0.4 sin x, v = 0.7 cos x + 0.2 sin 2x, sigma = 1 + 0.3 sin x;
    # u and rho at a node x are v and sigma at the root y of y + 0.4 sin y = x,
    # found by Newton's method in long double

    @staticmethod
    def errors(n):
        g = SpectralGrid(n)
        x = g.nodes
        ls = LagrangianState(
            phi=DiffeoMap(Field(g, 0.4 * np.sin(x))),
            v=Field(g, 0.7 * np.cos(x) + 0.2 * np.sin(2.0 * x)),
            sigma=Field(g, 1.0 + 0.3 * np.sin(x)),
            alpha=0.0,
        )
        st = to_eulerian(ls)
        x = x.astype(np.longdouble)
        y = x.copy()
        for _ in range(50):
            y -= (y + 0.4 * np.sin(y) - x) / (1.0 + 0.4 * np.cos(y))
        u = 0.7 * np.cos(y) + 0.2 * np.sin(2.0 * y)
        rho = 1.0 + 0.3 * np.sin(y)
        return (
            float(np.max(np.abs(st.velocity().values - u))),
            float(np.max(np.abs(st.rho.values - rho))),
        )

    def test_converges_to_the_inverse_map(self):
        errs = np.array([self.errors(n) for n in (32, 64, 128, 256)])
        # spectral decay while the resolution limits, then the roundoff floor
        assert np.all(errs[1:3] < 0.1 * errs[:2])
        assert np.all(errs[3] <= 1e-13)


class TestSpray:
    def test_kinematic_slots(self):
        rng = np.random.default_rng(311)
        g = SpectralGrid(64)
        ls = from_eulerian(random_eulerian(g, rng, alpha=0.8))
        params = ModelParams(a=2.0, alpha=0.8)
        hat = spray_modes(ls)
        dphi = spray_rhs(g, hat, params)[0]
        assert np.array_equal(dphi, hat[1])
        # alpha stays put
        step = rk4_step(ls, params, 0.1)
        assert step.alpha == 0.8

    def test_reduces_to_fixed_frame_source_at_identity(self):
        # at phi = id the conjugation collapses and dv must equal half the
        # smoothed source built from the same ingredients, to rounding
        rng = np.random.default_rng(312)
        g = SpectralGrid(64)
        params = ModelParams(a=2.5, alpha=0.6, kappa=1.5)
        st = random_eulerian(g, rng, alpha=0.6)
        u = st.velocity()
        ls = from_eulerian(st)
        dv = spray(ls, params)[1]
        products = source_argument(u.values, st.rho.values, derivative(u).values, params)
        w = 2.0 * 0.6 * u + dealias(Field(g, products))
        expect = 0.5 * ainv_d(w)
        assert np.max(np.abs(dv - expect.values)) < 1e-14

    def test_density_slot_at_identity(self):
        rng = np.random.default_rng(313)
        g = SpectralGrid(64)
        params = ModelParams(a=3.0, alpha=0.2)
        st = random_eulerian(g, rng, alpha=0.2)
        ls = from_eulerian(st)
        dsigma = spray(ls, params)[2]
        u_x = derivative(st.velocity())
        expect = (1.0 - 3.0) * multiply_dealiased(u_x, st.rho)
        assert np.max(np.abs(dsigma - expect.values)) < 1e-13

    def test_consistency_with_velocity_form_at_identity(self):
        # dv at the identity is du plus the convective term u u_x, since the
        # moving frame absorbs the transport
        rng = np.random.default_rng(314)
        g = SpectralGrid(64)
        params = ModelParams(a=2.0, alpha=0.4, kappa=1.0)
        st = random_eulerian(g, rng, alpha=0.4)
        u = st.velocity()
        ls = from_eulerian(st)
        dv = spray(ls, params)[1]
        hat = np.fft.rfft(np.stack([st.m.values, st.rho.values]))
        dm = np.fft.irfft(rhs_u_form(g, hat, params)[0], g.n)
        expect = helmholtz_invert(Field(g, dm)) + multiply_dealiased(u, derivative(u))
        assert np.max(np.abs(dv - expect.values)) < 1e-13


def conjugated_ainv_d(phi, w):
    """R_phi o (A^{-1} D) o R_{phi^-1} applied to w, at the nodes: the sum spray_rhs makes."""
    g = w.grid
    series = _SeriesAt(g.n, g.nodes + phi.displacement.values)
    return series.conjugated(w.values * phi.deriv_values, g._ainv_d_mult)


class TestConjugatedOperator:
    def test_rigid_shift_commutes(self):
        # Fourier multipliers commute with translations, so conjugating by a
        # rigid shift must be a no-op
        rng = np.random.default_rng(321)
        g = SpectralGrid(128)
        w = band_limited(g, rng, 20)
        phi = DiffeoMap(constant_field(g, 1.1))
        out = conjugated_ainv_d(phi, w)
        assert np.max(np.abs(out - ainv_d(w).values)) < 1e-12

    def test_identity_is_plain_operator(self):
        rng = np.random.default_rng(322)
        g = SpectralGrid(64)
        w = band_limited(g, rng, 16)
        out = conjugated_ainv_d(DiffeoMap.identity(g), w)
        assert np.max(np.abs(out - ainv_d(w).values)) < 1e-15

    def test_matches_explicit_conjugation(self):
        rng = np.random.default_rng(323)
        g = SpectralGrid(256)
        f = band_limited(g, rng, 10)
        phi = DiffeoMap(safe_displacement(g, rng, 4, slope=0.3))
        # w = f o phi, so w o phi^{-1} = f with no inverse formed
        explicit = compose(ainv_d(f), phi)
        out = conjugated_ainv_d(phi, compose(f, phi))
        assert np.max(np.abs(out - explicit.values)) < 1e-12

    def test_spectral_convergence_on_a_curved_map(self):
        # resolved data only: on full-band w the routes alias w o phi^{-1}
        # differently and no grid comparison is meaningful
        def conjugated(n):
            g = SpectralGrid(n)
            x = g.nodes
            phi = DiffeoMap(Field(g, 0.4 * np.sin(x) + 0.12 * np.cos(2 * x)))
            return conjugated_ainv_d(phi, Field(g, np.exp(np.sin(x))))

        ref = conjugated(4096)
        errs = [np.max(np.abs(conjugated(n) - ref[:: 4096 // n])) for n in (64, 128, 256)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= max(coarse / 100.0, 1e-12), errs
        assert errs[-1] < 1e-12, errs


class TestNoInversionInTheSpray:
    def test_spray_on_a_curved_map_does_not_invert(self):
        rng = np.random.default_rng(331)
        g = SpectralGrid(128)
        st = random_eulerian(g, rng, amp=0.3)
        ls = LagrangianState(
            phi=DiffeoMap(safe_displacement(g, rng, 5, slope=0.4)),
            v=st.velocity(),
            sigma=st.rho + constant_field(g, 1.0),
            alpha=st.alpha,
        )
        assert np.all(np.isfinite(spray(ls, ModelParams(a=2.5, alpha=st.alpha))))

    def test_a_run_converts_once_per_snapshot(self, monkeypatch):
        calls = []

        def counted(state):
            calls.append(state)
            return to_eulerian(state)

        monkeypatch.setattr("shearwave.timestepper.to_eulerian", counted)
        g = SpectralGrid(64)
        x = g.nodes
        st = EulerianState(
            m=helmholtz_apply(Field(g, 0.3 * np.cos(x))),
            rho=Field(g, 1.0 + 0.2 * np.sin(x)),
            alpha=0.5,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.5),
            0.1,
            control=StepControl(dt=1e-2),
            formulation="lagrangian",
            snapshot_every=0.05,
        )
        assert out.status == "completed"
        assert len(calls) == len(out.diagnostics) == 3

    def test_run_on_numpy_integer_grid(self):
        # the off-grid sums size their power tables with int.bit_length
        g = SpectralGrid(np.int64(64))
        st = EulerianState(
            m=helmholtz_apply(Field(g, 0.3 * np.cos(g.nodes))),
            rho=Field(g, 1.0 + 0.2 * np.sin(g.nodes)),
            alpha=0.5,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.5),
            0.02,
            control=StepControl(dt=1e-2),
            formulation="lagrangian",
            snapshot_every=0.01,
        )
        assert out.status == "completed"
        assert len(out.diagnostics) == 3
