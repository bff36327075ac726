"""Wave speed branches, derived coefficients, and initial data builders."""

import math

import numpy as np
import pytest

from shearwave import (
    Field,
    ModelParams,
    SpectralGrid,
    burns_speed,
    constant_field,
    constraint_residuals,
    cosine_mode,
    derive_coefficients,
    gaussian_bump,
    m1p_variant_residuals,
    sine_mode,
)
from shearwave.spectral import _SeriesAt


class TestBurnsSpeed:
    def test_three_halves_right_is_exactly_two(self):
        assert burns_speed(1.5, "right") == 2.0

    def test_three_halves_left(self):
        assert burns_speed(1.5, "left") == -0.5

    def test_zero_vorticity(self):
        assert burns_speed(0.0, "right") == 1.0
        assert burns_speed(0.0, "left") == -1.0

    def test_quadratic_residual_both_branches(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            alpha = float(rng.uniform(-10.0, 10.0))
            for branch in ("right", "left"):
                c = burns_speed(alpha, branch)
                assert abs(c * c - alpha * c - 1.0) < 1e-13 * max(1.0, c * c)

    def test_product_of_branches_is_minus_one(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            alpha = float(rng.uniform(-8.0, 8.0))
            p = burns_speed(alpha, "right") * burns_speed(alpha, "left")
            assert abs(p + 1.0) < 1e-14

    def test_sign_of_branches(self):
        for alpha in (-5.0, -0.3, 0.0, 0.3, 5.0):
            assert burns_speed(alpha, "right") > 0
            assert burns_speed(alpha, "left") < 0

    def test_branch_antisymmetry_is_bitwise(self):
        # the rationalized forms mirror each other exactly, not just closely
        for alpha in (-3.2, -1.0, 0.0, 0.7, 2.25, 9.5):
            assert burns_speed(-alpha, "left") == -burns_speed(alpha, "right")

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            burns_speed(1.0, "middle")

    def test_large_vorticity_stays_accurate(self):
        # the naive quadratic formula cancels catastrophically here
        c = burns_speed(1e8, "left")
        assert abs(c * c - 1e8 * c - 1.0) < 1e-8


class TestModelParams:
    def test_rejects_a_equal_one(self):
        with pytest.raises(ValueError):
            ModelParams(a=1.0)

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_rejects_nonpositive_kappa(self, kappa):
        with pytest.raises(ValueError):
            ModelParams(a=2.0, kappa=kappa)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": np.nan},
            {"a": np.inf},
            {"a": 2.0, "alpha": np.nan},
            {"a": 2.0, "alpha": -np.inf},
            {"a": 2.0, "kappa": np.nan},
            {"a": 2.0, "kappa": np.inf},
        ],
    )
    def test_rejects_non_finite_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_defaults(self):
        p = ModelParams(a=2.0)
        assert p.alpha == 0.0
        assert p.kappa == 1.0


class TestDerivedCoefficients:
    def test_reference_point(self):
        # a = 2, alpha = 0 gives rational values in closed form
        co = derive_coefficients(ModelParams(a=2.0, alpha=0.0))
        assert co.c == pytest.approx(1.0, abs=1e-15)
        assert co.k1 == pytest.approx(0.5, abs=1e-15)
        assert co.k2 == pytest.approx(-0.25, abs=1e-15)
        assert co.k3 == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert co.k0 == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert co.beta0_sq == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_golden_ratio_point(self):
        co = derive_coefficients(ModelParams(a=3.0, alpha=1.0))
        assert co.c == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-15)
        want_k1 = 1.0 / ((1.0 + co.c**2) * 4.0) + co.c**2 / 4.0
        assert co.k1 == pytest.approx(want_k1, abs=1e-14)

    def test_k3_ties_to_k1(self):
        rng = np.random.default_rng(111)
        for _ in range(30):
            a = float(rng.uniform(-3.0, 4.0))
            if abs(a - 1.0) < 0.1 or abs(a + 1.0) < 0.1:
                continue
            alpha = float(rng.uniform(-2.0, 2.0))
            p = ModelParams(a=a, alpha=alpha)
            co = derive_coefficients(p)
            assert co.k3 == pytest.approx(co.k1 / (6.0 * (co.c - alpha)), rel=1e-12)

    def test_selection_constants_do_not_depend_on_parameters(self):
        # k0 and beta0^2 collapse to fixed numbers once the wave speed
        # satisfies its quadratic; the dependence on (a, alpha) cancels
        rng = np.random.default_rng(112)
        for _ in range(30):
            a = float(rng.uniform(1.2, 4.0))
            alpha = float(rng.uniform(-2.0, 2.0))
            co = derive_coefficients(ModelParams(a=a, alpha=alpha))
            assert co.k0 == pytest.approx(-1.0 / 6.0, abs=1e-12)
            assert co.beta0_sq == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_residuals_small_for_random_parameters(self):
        rng = np.random.default_rng(113)
        count = 0
        while count < 50:
            a = float(rng.uniform(-3.0, 4.0))
            if abs(a - 1.0) < 0.05 or abs(a + 1.0) < 0.05:
                continue
            alpha = float(rng.uniform(-2.0, 2.0))
            branch = "right" if count % 2 == 0 else "left"
            p = ModelParams(a=a, alpha=alpha)
            co = derive_coefficients(p, branch=branch)
            for name, res in constraint_residuals(co, p).items():
                assert abs(res) < 1e-10, f"{name} residual {res} at a={a}, alpha={alpha}"
            count += 1

    def test_left_branch_also_closes(self):
        p = ModelParams(a=2.5, alpha=0.8)
        co = derive_coefficients(p, branch="left")
        assert co.c < 0
        for res in constraint_residuals(co, p).values():
            assert abs(res) < 1e-12

    def test_rejects_a_equal_minus_one(self):
        with pytest.raises(ValueError):
            derive_coefficients(ModelParams(a=-1.0))

    def test_non_finite_constants_raise(self):
        # c overflows to inf, so the residual scale is inf and every
        # residual check would pass; k3 = inf / inf is nan
        with pytest.raises(ArithmeticError, match="not finite") as info:
            derive_coefficients(ModelParams(a=2.0, alpha=1e308))
        assert "'c': inf" in str(info.value) and "'k3': nan" in str(info.value)

    @pytest.mark.parametrize("a", [-1.0 - 1e-6, -1.0 + 1e-6])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_finite_next_to_a_equal_minus_one(self, a, alpha):
        # k1 and k2 grow like 1/(a + 1) and (a + 1)^-2 there; the closing
        # relations must still hold at derive_coefficients' own tolerance
        p = ModelParams(a=a, alpha=alpha)
        co = derive_coefficients(p)
        values = (co.c, co.k1, co.k2, co.k3, co.k0, co.beta0_sq)
        assert all(math.isfinite(v) for v in values)
        scale = 1.0 + abs(co.c) + co.c * co.c + abs(co.k1) + abs(co.k2)
        for name, res in constraint_residuals(co, p).items():
            assert abs(res) <= 1e-12 * scale, f"{name} residual {res}"


class TestM1pVariants:
    def test_vanishes_at_a_two(self):
        p = ModelParams(a=2.0, alpha=0.7)
        co = derive_coefficients(p)
        res = m1p_variant_residuals(co, p)
        assert abs(res["factor_two"]) < 1e-12
        assert abs(res["factor_one"]) < 1e-12

    def test_factor_two_residual_matches_closed_form(self):
        rng = np.random.default_rng(121)
        for _ in range(20):
            a = float(rng.uniform(1.3, 4.0))
            alpha = float(rng.uniform(-1.5, 1.5))
            p = ModelParams(a=a, alpha=alpha)
            co = derive_coefficients(p)
            res = m1p_variant_residuals(co, p)
            want = co.c**2 * co.k1 * (a - 2.0)
            assert res["factor_two"] == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert abs(res["factor_one"]) < 1e-12

    def test_check_returns_factor_two_residual(self):
        p = ModelParams(a=3.0, alpha=0.0)
        co = derive_coefficients(p)
        # c = 1 and k1 = 3/8 here, so the residual is exactly 3/8
        assert m1p_variant_residuals(co, p)["factor_two"] == pytest.approx(0.375, abs=1e-13)


class TestInitialData:
    def test_cosine_mode_values(self):
        g = SpectralGrid(64)
        f = cosine_mode(g, 3, amplitude=0.5)
        assert np.max(np.abs(f.values - 0.5 * np.cos(3 * g.nodes))) < 1e-14

    def test_sine_mode_values(self):
        g = SpectralGrid(64)
        f = sine_mode(g, 2, amplitude=1.5)
        assert np.max(np.abs(f.values - 1.5 * np.sin(2 * g.nodes))) < 1e-14

    @pytest.mark.parametrize("builder", [cosine_mode, sine_mode])
    def test_mode_beyond_dealias_cutoff_rejected(self, builder):
        g = SpectralGrid(32)
        with pytest.raises(ValueError):
            builder(g, 11)

    @pytest.mark.parametrize("mode", [-1, 1.5])
    @pytest.mark.parametrize("builder", [cosine_mode, sine_mode])
    def test_negative_or_fractional_mode_rejected(self, builder, mode):
        with pytest.raises(ValueError, match="nonnegative integer"):
            builder(SpectralGrid(32), mode)

    def test_constant_field(self):
        g = SpectralGrid(16)
        f = constant_field(g, 2.5)
        assert np.all(f.values == 2.5)

    def test_gaussian_periodizes(self):
        # the wrapped sum must be smooth across the seam at 0 == 2*pi
        g = SpectralGrid(256)
        f = gaussian_bump(g, center=0.3, width=0.4, amplitude=1.0)
        left, right = _SeriesAt(g.n, np.array([1e-6, 2.0 * np.pi - 1e-6]))(f.coeffs)
        assert abs(left - right) < 1e-4

    def test_gaussian_matches_direct_image_sum(self):
        g = SpectralGrid(128)
        center, width, amp = 2.0, 0.5, 0.8
        f = gaussian_bump(g, center=center, width=width, amplitude=amp)
        x = g.nodes
        direct = np.zeros_like(x)
        for j in range(-10, 11):
            direct += amp * np.exp(-0.5 * ((x - center + 2.0 * np.pi * j) / width) ** 2)
        assert np.max(np.abs(f.values - direct)) < 1e-13

    def test_gaussian_rejects_bad_width(self):
        g = SpectralGrid(64)
        with pytest.raises(ValueError):
            gaussian_bump(g, center=0.0, width=0.0)

    def test_gaussian_rejects_nan_width(self):
        # NaN fails every comparison, so it must not pass as "not <= 0"
        g = SpectralGrid(32)
        with pytest.raises(ValueError):
            gaussian_bump(g, center=1.0, width=float("nan"))

    def test_gaussian_peak_location(self):
        g = SpectralGrid(256)
        f = gaussian_bump(g, center=np.pi, width=0.3, amplitude=2.0)
        assert g.nodes[int(np.argmax(f.values))] == pytest.approx(np.pi, abs=g.spacing)
