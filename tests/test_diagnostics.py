"""Conserved-quantity evaluators and the per-snapshot record."""

import warnings

import numpy as np
import pytest

from conftest import band_limited
from shearwave import (
    DiffeoMap,
    EulerianState,
    Field,
    LagrangianState,
    ModelParams,
    SpectralGrid,
    casimir,
    constant_field,
    derivative,
    energy_a2,
    helmholtz_apply,
    lemma_invariant,
    mean_velocity,
    sobolev_norm_pair,
)
from shearwave.diagnostics import make_record, transported_density_invariant

TWO_PI = 2.0 * np.pi


class TestEnergy:
    def test_zero_state(self):
        g = SpectralGrid(32)
        z = constant_field(g, 0.0)
        assert energy_a2(z, z, 0.0, 1.0) == 0.0

    def test_pure_cosine(self):
        g = SpectralGrid(64)
        u = Field(g, np.cos(g.nodes))
        assert energy_a2(u, constant_field(g, 0.0), 0.0, 1.0) == pytest.approx(
            TWO_PI, abs=1e-12
        )

    def test_vorticity_offset_terms(self):
        # u = 0, rho = 1, alpha = 2, kappa = 1: the u-term integrates
        # (0 - 1)^2, the bare alpha term adds 2, the density term adds 2*pi
        g = SpectralGrid(32)
        e = energy_a2(constant_field(g, 0.0), constant_field(g, 1.0), 2.0, 1.0)
        assert e == pytest.approx(2.0 * TWO_PI + 2.0, abs=1e-12)

    def test_kappa_weighting(self):
        g = SpectralGrid(64)
        u = Field(g, np.cos(g.nodes))
        rho = constant_field(g, 1.0)
        assert energy_a2(u, rho, 0.0, 2.0) == pytest.approx(
            TWO_PI + 2.0 * TWO_PI, abs=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(401)
        g = SpectralGrid(64)
        for _ in range(10):
            u = band_limited(g, rng, 16, amplitude=2.0)
            rho = band_limited(g, rng, 16, amplitude=2.0)
            alpha = float(rng.uniform(-3, 3))
            assert energy_a2(u, rho, alpha, 0.7) >= 0.0


class TestCasimir:
    # the record holds the power mean ((1/2pi) int rho^p)^{1/p}, p = 1/(a-1)

    def test_a_two_is_plain_integral(self):
        # p = 1: the mean of rho
        g = SpectralGrid(32)
        rho = Field(g, 2.0 + np.sin(g.nodes))
        assert casimir(rho, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_square_root_case(self):
        # a = 3 gives p = 1/2, and rho^{1/2} = 1 + sin(x)/2 has mean 1
        g = SpectralGrid(32)
        rho = Field(g, (1.0 + 0.5 * np.sin(g.nodes)) ** 2)
        assert casimir(rho, 3.0) == pytest.approx(1.0, abs=1e-14)

    def test_undefined_when_touching_zero(self):
        g = SpectralGrid(32)
        rho = Field(g, np.maximum(np.sin(g.nodes), 0.0))
        assert casimir(rho, 2.0) is None
        assert casimir(constant_field(g, 0.0), 3.0) is None

    def test_negative_exponent_branch(self):
        # a = 1.5 gives p = 2: mean of (2 + sin)^2 is 4.5
        g = SpectralGrid(32)
        rho = Field(g, 2.0 + np.sin(g.nodes))
        assert casimir(rho, 1.5) == pytest.approx(np.sqrt(4.5), abs=1e-14)

    def test_constant_density_is_its_own_mean(self):
        g = SpectralGrid(32)
        for a in (-2.0, 0.5, 1.5, 3.0):
            assert casimir(constant_field(g, 1.3), a) == pytest.approx(1.3, rel=1e-14)

    @pytest.mark.parametrize("a", [1.0 + 1e-6, 1.0 - 1e-6])
    def test_finite_next_to_a_equal_one(self, a):
        # |p| = 1e6: the Casimir itself overflows, its power mean tends to
        # max rho as a -> 1+ and to min rho as a -> 1-
        g = SpectralGrid(32)
        rho = Field(g, 1.3 + 0.3 * np.sin(g.nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = casimir(rho, a)
            const = casimir(constant_field(g, 1.3), a)
        assert np.isfinite(value) and np.isfinite(const)
        assert const == pytest.approx(1.3, rel=1e-12)
        edge = np.max(rho.values) if a > 1.0 else np.min(rho.values)
        assert value == pytest.approx(edge, rel=1e-4)

    def test_rejects_a_equal_one(self):
        g = SpectralGrid(32)
        with pytest.raises(ValueError):
            casimir(constant_field(g, 1.0), 1.0)


class TestMeanVelocity:
    def test_constant(self):
        g = SpectralGrid(32)
        assert mean_velocity(constant_field(g, 0.25)) == pytest.approx(
            0.25 * TWO_PI, abs=1e-13
        )

    def test_oscillation_has_no_mean(self):
        g = SpectralGrid(64)
        assert abs(mean_velocity(Field(g, np.sin(3 * g.nodes)))) < 1e-12


class TestSobolevPair:
    def test_zero(self):
        g = SpectralGrid(32)
        z = constant_field(g, 0.0)
        assert sobolev_norm_pair(z, z, 0) == 0.0

    def test_cosine_l2(self):
        g = SpectralGrid(64)
        m = Field(g, np.cos(g.nodes))
        z = constant_field(g, 0.0)
        assert sobolev_norm_pair(m, z, 0) == pytest.approx(np.pi, abs=1e-12)

    def test_density_enters_one_order_higher(self):
        # with m = 0 and rho = cos x at k = 0 the quantity is the H^1
        # square of the cosine, which is 2*pi
        g = SpectralGrid(64)
        z = constant_field(g, 0.0)
        rho = Field(g, np.cos(g.nodes))
        assert sobolev_norm_pair(z, rho, 0) == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(411)
        g = SpectralGrid(128)
        m = band_limited(g, rng, 20)
        rho = band_limited(g, rng, 20)
        h0 = sobolev_norm_pair(m, rho, 0)
        h1 = sobolev_norm_pair(m, rho, 1)
        h2 = sobolev_norm_pair(m, rho, 2)
        assert h0 <= h1 <= h2


class TestLemmaInvariant:
    def test_identity_map_returns_density(self):
        rng = np.random.default_rng(421)
        g = SpectralGrid(64)
        sigma = band_limited(g, rng, 16)
        ls = LagrangianState(
            phi=DiffeoMap.identity(g),
            v=constant_field(g, 0.0),
            sigma=sigma,
            alpha=0.0,
        )
        out = lemma_invariant(ls, 2.0)
        assert np.max(np.abs(out.values - sigma.values)) < 1e-14

    def test_weight_exponent(self):
        # phi_x = 1 + 0.4 cos x, sigma = 1: the invariant is phi_x^(a-1)
        g = SpectralGrid(64)
        phi = DiffeoMap(Field(g, 0.4 * np.sin(g.nodes)))
        ls = LagrangianState(
            phi=phi,
            v=constant_field(g, 0.0),
            sigma=constant_field(g, 1.0),
            alpha=0.0,
        )
        out = lemma_invariant(ls, 3.0)
        want = (1.0 + 0.4 * np.cos(g.nodes)) ** 2
        assert np.max(np.abs(out.values - want)) < 1e-12

    def test_transported_form_matches_at_pulled_back_density(self):
        rng = np.random.default_rng(422)
        g = SpectralGrid(128)
        rho = band_limited(g, rng, 10)
        from conftest import safe_displacement

        phi = DiffeoMap(safe_displacement(g, rng, 5, slope=0.3))
        from shearwave import compose

        direct = transported_density_invariant(rho, phi, 2.5)
        pulled = compose(rho, phi)
        want = pulled.values * phi.deriv_values**1.5
        assert np.max(np.abs(direct.values - want)) < 1e-12


class TestRecord:
    def test_fields_populated(self):
        rng = np.random.default_rng(431)
        g = SpectralGrid(64)
        u = band_limited(g, rng, 16, amplitude=0.5)
        rho = band_limited(g, rng, 16, amplitude=0.3) + constant_field(g, 1.0)
        st = EulerianState(m=helmholtz_apply(u), rho=rho, alpha=0.4)
        slope = float(np.max(np.abs(derivative(u).values)))
        rec = make_record(0.7, st, ModelParams(a=2.0, alpha=0.4, kappa=1.0), max_ux=slope)
        assert rec.t == 0.7
        assert rec.energy_a2 > 0.0
        assert rec.casimir is not None
        assert rec.min_rho == pytest.approx(float(np.min(rho.values)))
        assert rec.max_ux > 0.0
        assert all(isinstance(h, float) for h in (rec.h0, rec.h1, rec.h2))
        assert rec.lemma_deviation is None

    def test_energy_reads_the_vorticity_from_params(self):
        g = SpectralGrid(64)
        m = helmholtz_apply(Field(g, 0.3 * np.cos(g.nodes)))
        rho = Field(g, 1.0 + 0.2 * np.sin(g.nodes))

        def energy(state_alpha, params_alpha):
            st = EulerianState(m, rho, state_alpha)
            return make_record(0.0, st, ModelParams(a=2.0, alpha=params_alpha), max_ux=1.0).energy_a2

        assert energy(0.0, 0.5) == energy(0.5, 0.5)
        assert energy(0.5, 0.0) != energy(0.5, 0.5)

    def test_casimir_skipped_for_signed_density(self):
        rng = np.random.default_rng(432)
        g = SpectralGrid(64)
        u = band_limited(g, rng, 16, amplitude=0.5)
        rho = Field(g, np.sin(g.nodes))
        st = EulerianState(m=helmholtz_apply(u), rho=rho, alpha=0.0)
        rec = make_record(0.0, st, ModelParams(a=2.0), max_ux=1.0)
        assert rec.casimir is None
