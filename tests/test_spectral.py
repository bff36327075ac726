"""Grid construction, Fourier operators, and circle diffeomorphisms."""

import numpy as np
import pytest

from conftest import band_limited, multiply_dealiased, safe_displacement, sup_diff
from shearwave import (
    DiffeoMap,
    Field,
    GridMismatchError,
    NonDiffeomorphismError,
    SpectralGrid,
    ainv_d,
    ainv_d_factored,
    compose,
    dealias,
    derivative,
    evaluate_at,
    helmholtz_apply,
    helmholtz_invert,
    invert_diffeo,
)
from shearwave.spectral import sobolev_sq

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_nodes_and_spacing(self):
        g = SpectralGrid(16)
        assert g.n == 16
        assert g.spacing == pytest.approx(TWO_PI / 16)
        assert np.allclose(g.nodes, np.arange(16) * TWO_PI / 16)

    def test_wavenumber_layout(self):
        # the rfft layout: k = 0 .. n/2, Nyquist in the top slot
        g = SpectralGrid(8)
        assert list(g.wavenumbers) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("n", [7, 6, 0, -4, 9, 64.0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            SpectralGrid(n)

    def test_numpy_integer_size_is_stored_as_int(self):
        g = SpectralGrid(np.int64(64))
        assert type(g.n) is int and g == SpectralGrid(64)

    def test_quadrature_of_constant(self):
        g = SpectralGrid(32)
        assert g.integrate(np.full(32, 3.0)) == pytest.approx(6.0 * np.pi)

    def test_quadrature_is_exact_for_resolved_cosines(self):
        g = SpectralGrid(32)
        x = g.nodes
        assert abs(g.integrate(np.cos(5 * x))) < 1e-13
        assert g.integrate(np.cos(3 * x) ** 2) == pytest.approx(np.pi, abs=1e-13)

    def test_equality_by_size(self):
        assert SpectralGrid(16) == SpectralGrid(16)
        assert SpectralGrid(16) != SpectralGrid(32)


class TestField:
    def test_roundtrip_values_coeffs(self):
        rng = np.random.default_rng(11)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        back = np.fft.irfft(f.coeffs, g.n)
        assert np.max(np.abs(back - f.values)) < 1e-13

    def test_conjugate_symmetry_of_coeffs(self):
        # the cached modes are the nonnegative half of the full transform;
        # the rest are their conjugates, and c_0 and c_{n/2} are real
        rng = np.random.default_rng(12)
        g = SpectralGrid(32)
        f = band_limited(g, rng, 10)
        c, full = f.coeffs, np.fft.fft(f.values)
        assert c.shape == (17,)
        for k in range(17):
            assert abs(c[k] - full[k]) < 1e-12
        for k in range(1, 16):
            assert abs(c[k] - np.conj(full[-k])) < 1e-12
        assert c[0].imag == 0.0 and c[16].imag == 0.0

    def test_arithmetic(self):
        g = SpectralGrid(16)
        x = g.nodes
        f = Field(g, np.sin(x))
        h = Field(g, np.cos(x))
        assert np.allclose((f + h).values, np.sin(x) + np.cos(x))
        assert np.allclose((f - h).values, np.sin(x) - np.cos(x))
        assert np.allclose((2.5 * f).values, 2.5 * np.sin(x))
        assert np.allclose((f * 2.5).values, 2.5 * np.sin(x))
        assert np.allclose((-f).values, -np.sin(x))

    def test_pointwise_product_is_blocked(self):
        # plain * would alias silently, so it is refused outright
        g = SpectralGrid(16)
        f = Field(g, np.sin(g.nodes))
        with pytest.raises(TypeError):
            f * f

    def test_mixed_grids_are_rejected(self):
        f = Field(SpectralGrid(16), np.zeros(16))
        h = Field(SpectralGrid(32), np.zeros(32))
        with pytest.raises(GridMismatchError):
            f + h

    def test_linf(self):
        g = SpectralGrid(16)
        f = Field(g, -3.0 * np.sin(g.nodes))
        assert f.linf() == pytest.approx(3.0, abs=1e-12)


class TestDerivative:
    def test_mixed_trig(self):
        g = SpectralGrid(64)
        x = g.nodes
        f = Field(g, np.sin(3 * x) + np.cos(5 * x))
        want = 3 * np.cos(3 * x) - 5 * np.sin(5 * x)
        assert np.max(np.abs(derivative(f).values - want)) < 1e-12

    def test_kills_constants(self):
        g = SpectralGrid(32)
        f = Field(g, np.full(32, 4.0))
        assert derivative(f).linf() < 1e-13

    def test_nyquist_mode_is_annihilated(self):
        # (-1)^j has no odd-symmetric partner on the grid; its derivative
        # must come back zero rather than as a spurious imaginary mode
        g = SpectralGrid(32)
        f = Field(g, np.cos(16 * g.nodes))
        assert derivative(f).linf() < 1e-12

    def test_derivative_has_zero_mean(self):
        rng = np.random.default_rng(21)
        g = SpectralGrid(128)
        for _ in range(10):
            f = band_limited(g, rng, 40, amplitude=3.0)
            assert abs(g.integrate(derivative(f).values)) < 1e-12


class TestHelmholtz:
    def test_applies_one_plus_ksq(self):
        g = SpectralGrid(64)
        f = Field(g, np.sin(2 * g.nodes))
        assert sup_diff(helmholtz_apply(f), Field(g, 5 * np.sin(2 * g.nodes))) < 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(31)
        g = SpectralGrid(128)
        for _ in range(20):
            f = band_limited(g, rng, 40, amplitude=2.0)
            assert sup_diff(helmholtz_invert(helmholtz_apply(f)), f) < 1e-12
            assert sup_diff(helmholtz_apply(helmholtz_invert(f)), f) < 1e-12

    def test_preserves_constants(self):
        g = SpectralGrid(16)
        f = Field(g, np.full(16, 2.0))
        assert sup_diff(helmholtz_apply(f), f) < 1e-13
        assert sup_diff(helmholtz_invert(f), f) < 1e-13


class TestSmoothedDerivative:
    def test_sine_example(self):
        g = SpectralGrid(64)
        x = g.nodes
        f = Field(g, np.sin(x))
        assert sup_diff(ainv_d(f), Field(g, 0.5 * np.cos(x))) < 1e-13

    def test_constant_maps_to_zero(self):
        g = SpectralGrid(32)
        assert ainv_d(Field(g, np.full(32, 7.0))).linf() < 1e-13

    def test_factored_path_agrees(self):
        # the combined multiplier and the partial-fraction split must match
        rng = np.random.default_rng(41)
        g = SpectralGrid(256)
        worst = 0.0
        for _ in range(100):
            f = band_limited(g, rng, 80, amplitude=2.0)
            worst = max(worst, sup_diff(ainv_d(f), ainv_d_factored(f)))
        assert worst < 1e-12

    def test_nyquist_zeroed_on_both_paths(self):
        g = SpectralGrid(32)
        f = Field(g, np.cos(16 * g.nodes))
        assert ainv_d(f).linf() < 1e-12
        assert ainv_d_factored(f).linf() < 1e-12


class TestDealiasedProduct:
    def test_sin_squared(self):
        g = SpectralGrid(32)
        x = g.nodes
        f = Field(g, np.sin(x))
        want = Field(g, 0.5 - 0.5 * np.cos(2 * x))
        assert sup_diff(multiply_dealiased(f, f), want) < 1e-14

    def test_high_mode_square_keeps_only_mean(self):
        # sin(8x)^2 = 1/2 - cos(16x)/2 and mode 16 lies beyond the n/3
        # cutoff at n=32, so the product truncates to its mean
        g = SpectralGrid(32)
        f = Field(g, np.sin(8 * g.nodes))
        out = multiply_dealiased(f, f)
        assert np.max(np.abs(out.values - 0.5)) < 1e-13

    def test_bilinear(self):
        rng = np.random.default_rng(51)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        u = band_limited(g, rng, 20)
        w = band_limited(g, rng, 20)
        left = multiply_dealiased(f, u + w)
        right = multiply_dealiased(f, u) + multiply_dealiased(f, w)
        assert sup_diff(left, right) < 1e-13

    def test_commutes(self):
        rng = np.random.default_rng(52)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        u = band_limited(g, rng, 20)
        assert sup_diff(multiply_dealiased(f, u), multiply_dealiased(u, f)) < 1e-14

    def test_dealias_truncates(self):
        g = SpectralGrid(32)
        f = Field(g, np.cos(12 * g.nodes))
        assert dealias(f).linf() < 1e-13
        low = Field(g, np.cos(3 * g.nodes))
        assert sup_diff(dealias(low), low) < 1e-13


class TestSobolev:
    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_matches_full_band_parseval(self, s):
        # full-band data, so the Nyquist mode is nonzero and counts once
        rng = np.random.default_rng(70 + s)
        g = SpectralGrid(64)
        vals = rng.standard_normal(g.n)
        full = np.fft.fft(vals)
        assert abs(full[g.n // 2]) > 0.1
        k = np.fft.fftfreq(g.n, d=1.0 / g.n)
        want = np.sum((1.0 + k * k) ** s * np.abs(full) ** 2) * TWO_PI / g.n**2
        got = sobolev_sq(g, Field(g, vals).coeffs, s)
        assert abs(got - want) <= 1e-13 * want


class TestEvaluation:
    def test_reproduces_nodes(self):
        rng = np.random.default_rng(61)
        g = SpectralGrid(128)
        f = band_limited(g, rng, 60, amplitude=2.0)
        assert np.max(np.abs(evaluate_at(f, g.nodes) - f.values)) < 1e-12

    def test_shift_theorem(self):
        # evaluating at x + s must agree with resampling after multiplying
        # coefficients by exp(iks); Nyquist left out of the test data
        rng = np.random.default_rng(62)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        s = 0.37
        k = np.fft.fftfreq(g.n, d=1.0 / g.n)
        shifted = np.fft.ifft(np.fft.fft(f.values) * np.exp(1j * k * s)).real
        assert np.max(np.abs(evaluate_at(f, g.nodes + s) - shifted)) < 1e-12

    def test_wraps_modulo_two_pi(self):
        rng = np.random.default_rng(63)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        pts = np.array([0.3, 1.7, 5.9])
        assert np.max(np.abs(evaluate_at(f, pts + TWO_PI) - evaluate_at(f, pts))) < 1e-12
        assert np.max(np.abs(evaluate_at(f, pts - TWO_PI) - evaluate_at(f, pts))) < 1e-12

    def test_nyquist_reads_as_cosine(self):
        g = SpectralGrid(16)
        f = Field(g, np.cos(8 * g.nodes))
        pts = np.array([0.1, 0.9, 2.3, 4.0])
        assert np.max(np.abs(evaluate_at(f, pts) - np.cos(8 * pts))) < 1e-12

    @pytest.mark.parametrize("n", [8, 10, 30, 96, 256, 1024])
    def test_matches_direct_sum(self, n):
        # n = 10 and 30 leave n/2 short of a whole number of baby steps,
        # so the zero padding of the modes is exercised
        rng = np.random.default_rng(64 + n)
        g = SpectralGrid(n)
        f = Field(g, rng.standard_normal(n))
        pts = rng.uniform(0.0, TWO_PI, 3 * n)
        # full complex sum over k = -n/2+1 .. n/2; its real part reads the
        # Nyquist term as c_{n/2} cos(n x / 2), c_{n/2} being real.  The
        # phases k*x are formed in extended precision: rounded to doubles
        # they alone are off by about k*x*eps, some 6e-14 at n = 1024
        k = np.fft.fftfreq(n, d=1.0 / n)
        k[n // 2] = n // 2
        phases = np.outer(pts.astype(np.longdouble), k)
        direct = (np.exp(1j * phases) @ np.fft.fft(f.values)).real / n
        assert np.max(np.abs(evaluate_at(f, pts) - direct)) <= 1e-13 * (1.0 + f.linf())

    def test_known_function_off_grid(self):
        g = SpectralGrid(64)
        f = Field(g, np.sin(3 * g.nodes))
        pts = np.linspace(0.0, TWO_PI, 97)
        assert np.max(np.abs(evaluate_at(f, pts) - np.sin(3 * pts))) < 1e-12


class TestDiffeo:
    def test_identity(self):
        g = SpectralGrid(32)
        ident = DiffeoMap.identity(g)
        assert ident.is_identity()
        assert np.allclose(ident.node_images(), g.nodes)
        assert ident.min_deriv() == pytest.approx(1.0)

    def test_rejects_non_monotone_displacement(self):
        g = SpectralGrid(64)
        with pytest.raises(NonDiffeomorphismError):
            DiffeoMap(Field(g, -1.5 * np.sin(g.nodes)))

    def test_accepts_safe_displacement(self):
        g = SpectralGrid(64)
        phi = DiffeoMap(Field(g, 0.5 * np.sin(g.nodes)))
        assert phi.min_deriv() == pytest.approx(0.5, abs=1e-12)
        assert not phi.is_identity()

    def test_compose_with_rigid_shift(self):
        g = SpectralGrid(64)
        s = 0.83
        f = Field(g, np.sin(2 * g.nodes))
        phi = DiffeoMap(Field(g, np.full(64, s)))
        assert sup_diff(compose(f, phi), Field(g, np.sin(2 * (g.nodes + s)))) < 1e-12

    def test_compose_identity_is_free(self):
        g = SpectralGrid(32)
        f = Field(g, np.cos(g.nodes))
        assert compose(f, DiffeoMap.identity(g)) is f

    def test_compose_is_linear_in_the_field(self):
        rng = np.random.default_rng(71)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        h = band_limited(g, rng, 20)
        phi = DiffeoMap(Field(g, 0.4 * np.sin(g.nodes)))
        left = compose(2.0 * f - 3.0 * h, phi)
        right = 2.0 * compose(f, phi) - 3.0 * compose(h, phi)
        assert sup_diff(left, right) < 1e-12


class TestInversion:
    def test_identity_inverts_to_identity(self):
        g = SpectralGrid(32)
        assert invert_diffeo(DiffeoMap.identity(g)).is_identity()

    def test_rigid_shift_inverts_to_negative_shift(self):
        g = SpectralGrid(64)
        phi = DiffeoMap(Field(g, np.full(64, 0.9)))
        psi = invert_diffeo(phi)
        assert np.max(np.abs(psi.displacement.values + 0.9)) < 1e-12

    def test_inverse_residual_at_nodes(self):
        rng = np.random.default_rng(81)
        g = SpectralGrid(128)
        for _ in range(10):
            disp = safe_displacement(g, rng, 10, slope=0.6)
            phi = DiffeoMap(disp)
            psi = invert_diffeo(phi)
            back = evaluate_at_diffeo(phi, psi.node_images())
            assert np.max(np.abs(back - g.nodes)) < 1e-10

    def test_involution_canonical_map(self):
        g = SpectralGrid(128)
        phi = DiffeoMap(Field(g, 0.3 * np.sin(g.nodes)))
        again = invert_diffeo(invert_diffeo(phi))
        assert np.max(np.abs(again.displacement.values - phi.displacement.values)) < 1e-8

    def test_involution_random_maps(self):
        # the inverse of a trig-polynomial map is not itself one; its
        # spectral tail must be resolved, so keep the maps modest here
        rng = np.random.default_rng(82)
        g = SpectralGrid(256)
        for _ in range(10):
            disp = safe_displacement(g, rng, 6, slope=0.35)
            phi = DiffeoMap(disp)
            again = invert_diffeo(invert_diffeo(phi))
            assert np.max(np.abs(again.displacement.values - disp.values)) < 1e-8

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_newton_converges_in_few_iterations(self, n):
        # Newton converges quadratically on this smooth map; a node that
        # converges early must keep its root while the others finish
        g = SpectralGrid(n)
        x = g.nodes
        phi = DiffeoMap(Field(g, 0.4 * np.sin(x) + 0.12 * np.cos(2 * x)))
        psi = invert_diffeo(phi, max_iter=6)
        back = evaluate_at_diffeo(phi, psi.node_images())
        assert np.max(np.abs(back - x)) < 1e-10

    def test_round_trip_at_large_n(self):
        rng = np.random.default_rng(84)
        g = SpectralGrid(1024)
        phi = DiffeoMap(safe_displacement(g, rng, 24, slope=0.6))
        psi = invert_diffeo(phi)
        back = evaluate_at_diffeo(phi, psi.node_images())
        assert np.max(np.abs(back - g.nodes)) < 1e-11

    def test_composition_with_inverse_is_identity_on_fields(self):
        rng = np.random.default_rng(83)
        g = SpectralGrid(128)
        f = band_limited(g, rng, 12)
        phi = DiffeoMap(safe_displacement(g, rng, 6, slope=0.5))
        roundtrip = compose(compose(f, phi), invert_diffeo(phi))
        assert sup_diff(roundtrip, f) < 1e-8


def evaluate_at_diffeo(phi, points):
    """phi evaluated off-grid: identity part plus interpolated displacement."""
    return points + evaluate_at(phi.displacement, points)
