"""Grid construction, Fourier operators, and circle diffeomorphisms."""

import numpy as np
import pytest

from conftest import band_limited, multiply_dealiased, sup_diff
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
    helmholtz_apply,
    helmholtz_invert,
)
from shearwave.spectral import _SeriesAt, sobolev_sq

TWO_PI = 2.0 * np.pi


def direct_series(f, pts):
    """The trigonometric interpolant of f at pts, summed densely.

    The full complex sum over k = -n/2+1 .. n/2; its real part reads the
    Nyquist term as c_{n/2} cos(n x / 2), c_{n/2} being real.  The phases
    k*x are formed in extended precision: rounded to doubles they alone
    are off by about k*x*eps, some 6e-14 at n = 1024 and x < 2*pi.
    """
    n = f.grid.n
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = n // 2
    phases = np.outer(np.asarray(pts, dtype=np.longdouble), k)
    return (np.exp(1j * phases) @ np.fft.fft(f.values)).real / n


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

    def test_size_alone_gives_hash_and_repr(self):
        g = SpectralGrid(n=16)
        assert hash(g) == hash(SpectralGrid(16)) and {g, SpectralGrid(16)} == {g}
        assert repr(g) == "SpectralGrid(n=16)"


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

    @pytest.mark.parametrize("shape", [(15,), (17,), (2, 16), ()])
    def test_wrong_number_of_samples_is_rejected(self, shape):
        with pytest.raises(ValueError, match="expected 16 samples"):
            Field(SpectralGrid(16), np.zeros(shape))

    def test_field_from_modes_keeps_its_own_copy(self):
        # a stepper's packed rows change after the field is built from them
        g = SpectralGrid(16)
        modes = np.fft.rfft(np.sin(g.nodes))
        f = Field._from_coeffs(g, modes)
        modes[:] = 0.0
        assert np.array_equal(f.coeffs, np.fft.rfft(np.sin(g.nodes)))
        assert np.array_equal(f.values, np.fft.irfft(f.coeffs, 16))

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

    @pytest.mark.parametrize("n", [30, 32, 64])
    def test_cutoff_is_the_last_mode_kept(self, n):
        g = SpectralGrid(n)
        assert g.cutoff == n // 3
        kept, dropped = (Field(g, np.cos(k * g.nodes)) for k in (g.cutoff, g.cutoff + 1))
        assert sup_diff(dealias(kept), kept) < 1e-13
        assert dealias(dropped).linf() < 1e-13

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
        assert np.max(np.abs(_SeriesAt(g.n, g.nodes)(f.coeffs) - f.values)) < 1e-12

    def test_shift_theorem(self):
        # evaluating at x + s must agree with resampling after multiplying
        # coefficients by exp(iks); Nyquist left out of the test data
        rng = np.random.default_rng(62)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        s = 0.37
        k = np.fft.fftfreq(g.n, d=1.0 / g.n)
        shifted = np.fft.ifft(np.fft.fft(f.values) * np.exp(1j * k * s)).real
        assert np.max(np.abs(_SeriesAt(g.n, g.nodes + s)(f.coeffs) - shifted)) < 1e-12

    def test_wraps_modulo_two_pi(self):
        rng = np.random.default_rng(63)
        g = SpectralGrid(64)
        f = band_limited(g, rng, 20)
        pts = np.array([0.3, 1.7, 5.9])
        at = _SeriesAt(g.n, pts)(f.coeffs)
        assert np.max(np.abs(_SeriesAt(g.n, pts + TWO_PI)(f.coeffs) - at)) < 1e-12
        assert np.max(np.abs(_SeriesAt(g.n, pts - TWO_PI)(f.coeffs) - at)) < 1e-12

    def test_nyquist_reads_as_cosine(self):
        g = SpectralGrid(16)
        f = Field(g, np.cos(8 * g.nodes))
        pts = np.array([0.1, 0.9, 2.3, 4.0])
        assert np.max(np.abs(_SeriesAt(g.n, pts)(f.coeffs) - np.cos(8 * pts))) < 1e-12

    @pytest.mark.parametrize("n", [8, 10, 30, 96, 256, 1024])
    def test_matches_direct_sum(self, n):
        # n = 10 and 30 leave n/2 short of a whole number of baby steps,
        # so the zero padding of the modes is exercised
        rng = np.random.default_rng(64 + n)
        g = SpectralGrid(n)
        f = Field(g, rng.standard_normal(n))
        pts = rng.uniform(0.0, TWO_PI, 3 * n)
        assert np.max(np.abs(_SeriesAt(n, pts)(f.coeffs) - direct_series(f, pts))) <= 1e-13 * (
            1.0 + f.linf()
        )
        # the same oracle for the adjoint sum and for the fused adjoint,
        # multiplier and series sum, at node images reaching past [0, 2*pi)
        disp = rng.uniform(-1.0, 1.0, n)
        q, weight = rng.standard_normal(n), rng.uniform(0.5, 1.5, n)
        series = _SeriesAt(n, g.nodes + disp)
        k = np.arange(n // 2 + 1)
        dense = np.exp(-1j * np.outer(k, (g.nodes + disp).astype(np.longdouble)))
        direct = dense @ q
        assert np.max(np.abs(series.modes(q) - direct)) / n <= 1e-13 * (1.0 + np.max(np.abs(q)))
        # the multiplier zeroes k = 0 and n/2, so the series is 2 Re sum over 0 < k < n/2
        smoothed = (dense @ (q * weight)) * g._ainv_d_mult
        direct = 2.0 * (np.conj(dense.T) @ smoothed).real / n
        got = series.conjugated(q * weight, g._ainv_d_mult)
        assert np.max(np.abs(got - direct)) <= 1e-13 * (1.0 + np.max(np.abs(direct)))

    @pytest.mark.parametrize("n", [10, 64, 1024])
    def test_images_outside_the_period_need_no_wrapping(self, n):
        # images below 0 near the first node and above 2*pi near the last
        rng = np.random.default_rng(192 + n)
        g = SpectralGrid(n)
        f = band_limited(g, rng, n // 3)
        disp = 0.7 * np.sign(g.nodes - np.pi)
        images = g.nodes + disp
        assert images.min() < 0.0 and images.max() > TWO_PI
        series, wrapped = _SeriesAt(n, images), _SeriesAt(n, np.mod(images, TWO_PI))
        assert np.max(np.abs(series(f.coeffs) - wrapped(f.coeffs))) <= 1e-13
        q = rng.standard_normal(n)
        assert np.max(np.abs(series.modes(q) - wrapped.modes(q))) / n <= 1e-13

    @pytest.mark.parametrize("n", [64, 1024])
    def test_points_outside_the_period_match_direct_sum(self, n):
        # reducing a point mod 2*pi moves it by up to several ulp(2*pi), an
        # error that f' multiplies, so the field has flat modes 1 .. 21 and
        # a slope 10 to 12 times its sup
        rng = np.random.default_rng(448 + n)
        g = SpectralGrid(n)
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[1:22] = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        vals = np.fft.irfft(c, n)
        f = Field(g, 10.0 * vals / np.max(np.abs(vals)))
        pts = np.concatenate([rng.uniform(-40.0, -1.0, 200), rng.uniform(TWO_PI + 1.0, 50.0, 200)])
        err = np.max(np.abs(_SeriesAt(n, pts)(f.coeffs) - direct_series(f, pts)))
        assert err <= 1e-14 * (1.0 + f.linf())

    def test_known_function_off_grid(self):
        g = SpectralGrid(64)
        f = Field(g, np.sin(3 * g.nodes))
        pts = np.linspace(0.0, TWO_PI, 97)
        assert np.max(np.abs(_SeriesAt(g.n, pts)(f.coeffs) - np.sin(3 * pts))) < 1e-12


class TestDiffeo:
    def test_identity(self):
        g = SpectralGrid(32)
        ident = DiffeoMap.identity(g)
        assert ident.is_identity()
        assert not np.any(ident.displacement.values)
        assert np.min(ident.deriv_values) == pytest.approx(1.0)

    def test_rejects_non_monotone_displacement(self):
        g = SpectralGrid(64)
        with pytest.raises(NonDiffeomorphismError):
            DiffeoMap(Field(g, -1.5 * np.sin(g.nodes)))

    def test_accepts_safe_displacement(self):
        g = SpectralGrid(64)
        phi = DiffeoMap(Field(g, 0.5 * np.sin(g.nodes)))
        assert np.min(phi.deriv_values) == pytest.approx(0.5, abs=1e-12)
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
