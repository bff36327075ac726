"""Right-hand sides in momentum and velocity form, and their algebra."""

import numpy as np
import pytest

from conftest import band_limited, multiply_dealiased
from shearwave import (
    EulerianState,
    Field,
    ModelParams,
    SpectralGrid,
    ainv_d,
    constant_field,
    derivative,
    forms_equivalent,
    helmholtz_apply,
    helmholtz_invert,
    rhs_m_form,
    rhs_u_form,
)
from shearwave.spectral import _SeriesAt


def u_form_rows(g, m, rho, params):
    """Nodal (dm, drho): rhs_u_form maps the rfft modes of (m, rho) to theirs."""
    hat = np.fft.rfft(np.stack([m.values, rho.values]))
    return np.fft.irfft(rhs_u_form(g, hat, params), g.n)


def u_form(u, rho, params):
    """(du, drho) as Fields: rhs_u_form returns dm = A(du) for the rows (m, rho)."""
    g = u.grid
    dm, drho = u_form_rows(g, helmholtz_apply(u), rho, params)
    return helmholtz_invert(Field(g, dm)), Field(g, drho)


def random_state(grid, rng, kmax=16, amp=0.5, alpha=0.5):
    u = band_limited(grid, rng, kmax, amplitude=amp)
    rho = band_limited(grid, rng, kmax, amplitude=amp)
    return EulerianState(m=helmholtz_apply(u), rho=rho, alpha=alpha), u


class TestMomentumForm:
    def test_cosine_oracle(self):
        # u = cos x, rho = 0, a = 2, alpha = 0, kappa = 1:
        # m = 2 cos x and dm works out to 3 sin 2x by hand
        g = SpectralGrid(64)
        u = Field(g, np.cos(g.nodes))
        st = EulerianState(m=helmholtz_apply(u), rho=constant_field(g, 0.0), alpha=0.0)
        dm, drho = rhs_m_form(st, ModelParams(a=2.0, kappa=1.0))
        assert np.max(np.abs(dm.values - 3.0 * np.sin(2.0 * g.nodes))) < 1e-11
        assert drho.linf() < 1e-13

    def test_constant_state_is_steady(self):
        g = SpectralGrid(32)
        st = EulerianState(
            m=constant_field(g, 0.7), rho=constant_field(g, 1.3), alpha=0.9
        )
        dm, drho = rhs_m_form(st, ModelParams(a=2.5, alpha=0.9, kappa=2.0))
        assert dm.linf() < 1e-13
        assert drho.linf() < 1e-13

    def test_density_decouples_when_zero(self):
        rng = np.random.default_rng(201)
        g = SpectralGrid(64)
        u = band_limited(g, rng, 16)
        st = EulerianState(m=helmholtz_apply(u), rho=constant_field(g, 0.0), alpha=0.3)
        _, drho = rhs_m_form(st, ModelParams(a=3.0, alpha=0.3))
        assert drho.linf() == 0.0 or drho.linf() < 1e-15

    def test_quadratic_homogeneity(self):
        # scaling (u, rho, alpha) by lam scales the whole right side by lam^2;
        # fft roundtrips leave a scaled-machine residue, so not bitwise
        rng = np.random.default_rng(202)
        g = SpectralGrid(64)
        params = ModelParams(a=2.5, alpha=0.8, kappa=1.5)
        st, _ = random_state(g, rng, alpha=0.8)
        lam = 2.0
        scaled = EulerianState(m=lam * st.m, rho=lam * st.rho, alpha=lam * st.alpha)
        dm1, dr1 = rhs_m_form(st, params)
        params2 = ModelParams(a=2.5, alpha=lam * 0.8, kappa=1.5)
        dm2, dr2 = rhs_m_form(scaled, params2)
        scale = max(1.0, dm2.linf())
        assert np.max(np.abs(dm2.values - lam**2 * dm1.values)) < 1e-12 * scale
        assert np.max(np.abs(dr2.values - lam**2 * dr1.values)) < 1e-12 * scale

    def test_mean_momentum_is_conserved_instantaneously(self):
        rng = np.random.default_rng(203)
        g = SpectralGrid(128)
        params = ModelParams(a=2.0, alpha=0.4, kappa=1.0)
        for _ in range(5):
            st, _ = random_state(g, rng, alpha=0.4)
            dm, _ = rhs_m_form(st, params)
            assert abs(g.integrate(dm.values)) < 1e-12 * max(1.0, dm.linf())

    def test_mean_density_conserved_at_a_two(self):
        # the transport weight a - 1 = 1 turns the density equation into a
        # perfect derivative, so the mean of rho is frozen
        rng = np.random.default_rng(204)
        g = SpectralGrid(128)
        params = ModelParams(a=2.0, alpha=0.2, kappa=1.0)
        for _ in range(5):
            st, _ = random_state(g, rng, alpha=0.2)
            _, drho = rhs_m_form(st, params)
            assert abs(g.integrate(drho.values)) < 1e-12 * max(1.0, drho.linf())

    def test_reflection_equivariance(self):
        # u -> -u(-x), rho -> -rho(-x), alpha -> -alpha is a grid permutation
        # together with sign flips, so it commutes with the discrete RHS
        rng = np.random.default_rng(205)
        g = SpectralGrid(64)
        n = g.n
        refl = (-np.arange(n)) % n

        def reflect(values):
            return -values[refl]

        params = ModelParams(a=2.5, alpha=0.6, kappa=1.2)
        params_r = ModelParams(a=2.5, alpha=-0.6, kappa=1.2)
        st, _ = random_state(g, rng, alpha=0.6)
        st_r = EulerianState(
            m=Field(g, reflect(st.m.values)),
            rho=Field(g, reflect(st.rho.values)),
            alpha=-0.6,
        )
        dm, drho = rhs_m_form(st, params)
        dm_r, drho_r = rhs_m_form(st_r, params_r)
        scale = max(1.0, dm.linf())
        assert np.max(np.abs(dm_r.values - reflect(dm.values))) < 1e-12 * scale
        assert np.max(np.abs(drho_r.values - reflect(drho.values))) < 1e-12 * scale

    def test_negation_invariance(self):
        # the right side is quadratic, so negating (u, rho, alpha) leaves it
        # unchanged; this is what makes the flow time-reversible
        rng = np.random.default_rng(206)
        g = SpectralGrid(64)
        params = ModelParams(a=3.0, alpha=0.5, kappa=1.0)
        params_n = ModelParams(a=3.0, alpha=-0.5, kappa=1.0)
        st, _ = random_state(g, rng, alpha=0.5)
        neg = EulerianState(m=-st.m, rho=-st.rho, alpha=-st.alpha)
        dm, drho = rhs_m_form(st, params)
        dm_n, drho_n = rhs_m_form(neg, params_n)
        scale = max(1.0, dm.linf())
        assert np.max(np.abs(dm_n.values - dm.values)) < 1e-12 * scale
        assert np.max(np.abs(drho_n.values - drho.values)) < 1e-12 * scale


class TestVelocityForm:
    def test_cosine_oracle(self):
        # same data as the momentum oracle; du = (3/5) sin 2x and the two
        # answers are linked by the Helmholtz operator
        g = SpectralGrid(64)
        u = Field(g, np.cos(g.nodes))
        rho = constant_field(g, 0.0)
        du, drho = u_form(u, rho, ModelParams(a=2.0, kappa=1.0))
        assert np.max(np.abs(du.values - 0.6 * np.sin(2.0 * g.nodes))) < 1e-11
        assert drho.linf() < 1e-13

    def test_constant_is_steady(self):
        g = SpectralGrid(32)
        du, drho = u_form(
            constant_field(g, 0.4),
            constant_field(g, 2.0),
            ModelParams(a=1.5, alpha=0.7, kappa=3.0),
        )
        assert du.linf() < 1e-13
        assert drho.linf() < 1e-13

    def test_mean_velocity_frozen(self):
        rng = np.random.default_rng(211)
        g = SpectralGrid(128)
        params = ModelParams(a=2.5, alpha=0.3, kappa=1.0)
        for _ in range(5):
            u = band_limited(g, rng, 20)
            rho = band_limited(g, rng, 20)
            du, _ = u_form(u, rho, params)
            assert abs(g.integrate(du.values)) < 1e-12 * max(1.0, du.linf())

    @pytest.mark.parametrize("a,alpha,kappa", [(2.0, 0.0, 1.0), (3.0, 1.0, 2.0), (1.5, -0.5, 0.5)])
    def test_agrees_with_momentum_form(self, a, alpha, kappa):
        rng = np.random.default_rng(212)
        g = SpectralGrid(128)
        params = ModelParams(a=a, alpha=alpha, kappa=kappa)
        for _ in range(20):
            u = band_limited(g, rng, 16, amplitude=0.8)
            rho = band_limited(g, rng, 16, amplitude=0.8)
            assert forms_equivalent(u, rho, params) < 1e-12

    def test_forms_equivalent_reports_scaled_defect(self):
        g = SpectralGrid(64)
        u = Field(g, np.cos(g.nodes))
        rho = constant_field(g, 1.0)
        r = forms_equivalent(u, rho, ModelParams(a=2.0))
        assert 0.0 <= r < 1e-12


class TestSingleTruncation:
    """Each equation truncates its sum of products once; the 2/3 rule is
    linear, so this must match dealiasing every product on its own even
    when the data carry modes above n/3."""

    @staticmethod
    def gap(got, ref):
        return np.max(np.abs(got.values - ref.values)) / (1.0 + ref.linf())

    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_per_product_formulas(self, n):
        rng = np.random.default_rng(220 + n)
        g = SpectralGrid(n)
        a, alpha, kappa = 2.5, 0.7, 1.3
        params = ModelParams(a=a, alpha=alpha, kappa=kappa)
        m = Field(g, rng.standard_normal(n))
        rho = Field(g, rng.standard_normal(n))
        u = helmholtz_invert(m)
        u_x, m_x, rho_x = derivative(u), derivative(m), derivative(rho)
        drho_ref = -multiply_dealiased(u, rho_x) - (a - 1.0) * multiply_dealiased(
            u_x, rho
        )
        source = (
            2.0 * alpha * u
            - kappa * multiply_dealiased(rho, rho)
            + (a - 3.0) * multiply_dealiased(u_x, u_x)
            - a * multiply_dealiased(u, u)
        )
        du_ref = -multiply_dealiased(u, u_x) + 0.5 * ainv_d(source)
        dm_ref = (
            alpha * u_x
            - a * multiply_dealiased(u_x, m)
            - multiply_dealiased(u, m_x)
            - kappa * multiply_dealiased(rho, rho_x)
        )
        # the velocity form returns dm = A(du); A^{-1} of it meets the du oracle
        dm_u, drho_u = u_form_rows(g, m, rho, params)
        du, drho_u = helmholtz_invert(Field(g, dm_u)), Field(g, drho_u)
        dm, drho_m = rhs_m_form(EulerianState(m, rho, alpha), params)
        pairs = [(du, du_ref), (drho_u, drho_ref), (dm, dm_ref), (drho_m, drho_ref)]
        for got, ref in pairs:
            assert self.gap(got, ref) <= 1e-14


class TestTrackedRowIsWhole:
    def test_displacement_tendency_keeps_modes_above_a_third(self):
        # u = cos 8x under phi = x + 0.3 sin x: u o phi = cos(8x + 2.4 sin x)
        # has sidebands 8 +- j of size J_j(2.4), well above n/3 = 10 at n = 32
        g = SpectralGrid(32)
        u = Field(g, np.cos(8.0 * g.nodes))
        disp = 0.3 * np.sin(g.nodes)
        rho = constant_field(g, 1.0)
        hat = np.stack([helmholtz_apply(u).coeffs, rho.coeffs, np.fft.rfft(disp)])
        got = rhs_u_form(g, hat, ModelParams(a=2.0, alpha=0.4))[2]
        want = np.fft.rfft(_SeriesAt(g.n, g.nodes + disp)(u.coeffs))
        high = g.wavenumbers > g.n // 3
        assert np.max(np.abs(want[high])) > 0.1 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
