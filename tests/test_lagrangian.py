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
    conjugated_ainv_d,
    constant_field,
    derivative,
    from_eulerian,
    helmholtz_apply,
    invert_diffeo,
    rhs_u_form,
    run,
    spray_rhs,
    to_eulerian,
)
from shearwave.eulerian import source_argument


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
        assert ls.f.linf() < 1e-15
        assert ls.s == 0.0
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
        ls = LagrangianState(phi=phi, f=constant_field(g, 0.0), s=0.0, v=v, sigma=sigma, alpha=0.0)
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
            f=constant_field(g, 0.0),
            s=0.0,
            v=compose(u, phi),
            sigma=compose(st.rho, phi),
            alpha=st.alpha,
        )
        back = to_eulerian(ls)
        assert np.max(np.abs(back.velocity().values - u.values)) < 1e-9
        assert np.max(np.abs(back.rho.values - st.rho.values)) < 1e-9


class TestSpray:
    def test_kinematic_slots(self):
        rng = np.random.default_rng(311)
        g = SpectralGrid(64)
        ls = from_eulerian(random_eulerian(g, rng, alpha=0.8))
        d = spray_rhs(ls, ModelParams(a=2.0, alpha=0.8))
        assert d.dphi is ls.v
        assert d.df is ls.sigma
        assert d.ds == 0.8
        assert d.dalpha == 0.0

    def test_reduces_to_fixed_frame_source_at_identity(self):
        # at phi = id the conjugation collapses and dv must equal half the
        # smoothed source built from the same ingredients, to rounding
        rng = np.random.default_rng(312)
        g = SpectralGrid(64)
        params = ModelParams(a=2.5, alpha=0.6, kappa=1.5)
        st = random_eulerian(g, rng, alpha=0.6)
        u = st.velocity()
        ls = from_eulerian(st)
        d = spray_rhs(ls, params)
        w = source_argument(u, st.rho, derivative(u), 0.6, params)
        expect = 0.5 * ainv_d(w)
        assert np.max(np.abs(d.dv.values - expect.values)) < 1e-14

    def test_density_slot_at_identity(self):
        rng = np.random.default_rng(313)
        g = SpectralGrid(64)
        params = ModelParams(a=3.0, alpha=0.2)
        st = random_eulerian(g, rng, alpha=0.2)
        ls = from_eulerian(st)
        d = spray_rhs(ls, params)
        u_x = derivative(st.velocity())
        expect = (1.0 - 3.0) * multiply_dealiased(u_x, st.rho)
        assert np.max(np.abs(d.dsigma.values - expect.values)) < 1e-13

    def test_consistency_with_velocity_form_at_identity(self):
        # dv at the identity is du plus the convective term u u_x, since the
        # moving frame absorbs the transport
        rng = np.random.default_rng(314)
        g = SpectralGrid(64)
        params = ModelParams(a=2.0, alpha=0.4, kappa=1.0)
        st = random_eulerian(g, rng, alpha=0.4)
        u = st.velocity()
        ls = from_eulerian(st)
        d = spray_rhs(ls, params)
        du, _ = rhs_u_form(u, st.rho, 0.4, params)
        expect = du + multiply_dealiased(u, derivative(u))
        assert np.max(np.abs(d.dv.values - expect.values)) < 1e-13


class TestConjugatedOperator:
    def test_rigid_shift_commutes(self):
        # Fourier multipliers commute with translations, so conjugating by a
        # rigid shift must be a no-op
        rng = np.random.default_rng(321)
        g = SpectralGrid(128)
        w = band_limited(g, rng, 20)
        phi = DiffeoMap(constant_field(g, 1.1))
        out = conjugated_ainv_d(phi, w)
        assert np.max(np.abs(out.values - ainv_d(w).values)) < 1e-12

    def test_identity_is_plain_operator(self):
        rng = np.random.default_rng(322)
        g = SpectralGrid(64)
        w = band_limited(g, rng, 16)
        out = conjugated_ainv_d(DiffeoMap.identity(g), w)
        assert np.max(np.abs(out.values - ainv_d(w).values)) < 1e-15

    def test_matches_explicit_conjugation(self):
        rng = np.random.default_rng(323)
        g = SpectralGrid(256)
        w = band_limited(g, rng, 10)
        phi = DiffeoMap(safe_displacement(g, rng, 4, slope=0.3))
        phi_inv = invert_diffeo(phi)
        explicit = compose(ainv_d(compose(w, phi_inv)), phi)
        out = conjugated_ainv_d(phi, w)
        assert np.max(np.abs(out.values - explicit.values)) < 1e-12

    def test_spectral_convergence_on_a_curved_map(self):
        # resolved data only: on full-band w the routes alias w o phi^{-1}
        # differently and no grid comparison is meaningful
        def conjugated(n):
            g = SpectralGrid(n)
            x = g.nodes
            phi = DiffeoMap(Field(g, 0.4 * np.sin(x) + 0.12 * np.cos(2 * x)))
            return conjugated_ainv_d(phi, Field(g, np.exp(np.sin(x)))).values

        ref = conjugated(4096)
        errs = [np.max(np.abs(conjugated(n) - ref[:: 4096 // n])) for n in (64, 128, 256)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= max(coarse / 100.0, 1e-12), errs
        assert errs[-1] < 1e-12, errs


class TestNoInversionInTheSpray:
    def test_spray_on_a_curved_map_does_not_invert(self, monkeypatch):
        def refuse(phi, *args, **kwargs):
            raise AssertionError("spray_rhs inverted the flow map")

        monkeypatch.setattr("shearwave.lagrangian.invert_diffeo", refuse)
        rng = np.random.default_rng(331)
        g = SpectralGrid(128)
        st = random_eulerian(g, rng, amp=0.3)
        ls = LagrangianState(
            phi=DiffeoMap(safe_displacement(g, rng, 5, slope=0.4)),
            f=constant_field(g, 0.0),
            s=0.0,
            v=st.velocity(),
            sigma=st.rho + constant_field(g, 1.0),
            alpha=st.alpha,
        )
        d = spray_rhs(ls, ModelParams(a=2.5, alpha=st.alpha))
        assert np.all(np.isfinite(d.dv.values)) and np.all(np.isfinite(d.dsigma.values))

    def test_a_run_inverts_once_per_snapshot(self, monkeypatch):
        calls = []

        def counted(phi, *args, **kwargs):
            calls.append(phi)
            return invert_diffeo(phi, *args, **kwargs)

        monkeypatch.setattr("shearwave.lagrangian.invert_diffeo", counted)
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
