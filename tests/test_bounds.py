import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from curvshell.bounds import (
    outer_radius_bound,
    quotient_bound,
    quotient_bound_coarse,
    quotient_maximizer,
    quotient_profile,
    stability_quotient_constant,
    stability_result,
    stability_width_constant,
    width_bound,
    width_profile,
)
from curvshell.geometry import PinchSpec, SpaceCurvature

from conftest import FLAT, HYPER, SPACES, SPHERE, random_pinch, rng_for

SQRT2 = math.sqrt(2.0)

# Frozen oracle values (mpmath, 50 digits).
SPH_WIDTH_12 = 0.1352805183149575  # spherical c=1 pinch (1,2)
SPH_MAXIMIZER_12 = 0.5568826270416485
HYP_WIDTH_23 = 0.0834878258962939  # hyperbolic c=-1 pinch (2,3)
HYP_MAXIMIZER_23 = 0.4061959543588668
FLAT_WIDTH_12 = 0.2071067811865476  # (sqrt(2)-1)/2
FLAT_MAXIMIZER_12 = 0.6464466094067263  # 1 - 0.5/sqrt(2)
OUTER_FLAT_075 = 0.9330127018922193  # sqrt(0.1875) + 0.5


def pinch(space, k1, k2):
    return PinchSpec.from_curvatures(space, k1, k2)


def grid_profile_max(space, p, n=10_000):
    """Independent maximization oracle: dense grid plus bounded local polish."""
    rs = np.linspace(p.r2, p.r1, n)
    vals = np.array([width_profile(space, p, r) for r in rs])
    i = int(np.argmax(vals))
    lo, hi = rs[max(i - 1, 0)], rs[min(i + 1, n - 1)]
    res = minimize_scalar(lambda r: -width_profile(space, p, r), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return max(vals[i], -res.fun), rs[i]


class TestWidthBound:
    def test_flat_example(self):
        r = width_bound(FLAT, pinch(FLAT, 1.0, 2.0))
        assert_allclose(r.bound, FLAT_WIDTH_12, rtol=1e-14)
        assert_allclose(r.maximizer_r, FLAT_MAXIMIZER_12, rtol=1e-14)
        assert_allclose(r.attained_R - r.maximizer_r, r.bound, atol=1e-12)

    def test_degenerate_is_zero(self):
        r = width_bound(FLAT, pinch(FLAT, 1.3, 1.3))
        assert r.bound == 0.0
        assert r.maximizer_r == r.attained_R

    def test_spherical_example(self):
        r = width_bound(SPHERE, pinch(SPHERE, 1.0, 2.0))
        assert_allclose(r.bound, SPH_WIDTH_12, rtol=1e-13)
        assert_allclose(r.maximizer_r, SPH_MAXIMIZER_12, atol=5e-8)
        assert abs(width_profile(SPHERE, pinch(SPHERE, 1.0, 2.0), r.maximizer_r) - r.bound) <= 1e-10

    def test_hyperbolic_example(self):
        r = width_bound(HYPER, pinch(HYPER, 2.0, 3.0))
        assert_allclose(r.bound, HYP_WIDTH_23, rtol=1e-13)
        assert_allclose(r.maximizer_r, HYP_MAXIMIZER_23, atol=5e-8)

    @pytest.mark.parametrize("space", SPACES)
    def test_matches_grid_maximization(self, space):
        p = pinch(space, 0.8, 2.4) if space.kind != "hyperbolic" else pinch(space, 1.5, 2.9)
        got = width_bound(space, p)
        oracle, _ = grid_profile_max(space, p)
        assert abs(got.bound - oracle) <= 1e-8
        assert abs(width_profile(space, p, got.maximizer_r) - got.bound) <= 1e-10

    @pytest.mark.parametrize("space", SPACES)
    def test_sharpness_grid_consistency(self, space):
        # max over a 1e4-point grid of the width profile equals the bound to 1e-8
        rng = rng_for(21)
        for _ in range(8):
            p = random_pinch(space, rng)
            rs = np.linspace(p.r2, p.r1, 10_000)
            grid_max = max(width_profile(space, p, r) for r in rs)
            assert abs(grid_max - width_bound(space, p).bound) <= 1e-8

    @pytest.mark.parametrize("space", SPACES)
    def test_maximizer_in_range(self, space):
        rng = rng_for(22)
        for _ in range(50):
            p = random_pinch(space, rng)
            r = width_bound(space, p)
            assert p.r2 <= r.maximizer_r <= p.r1
            assert abs(r.attained_R - r.maximizer_r - r.bound) <= 1e-10

    @pytest.mark.parametrize("kind", ["spherical", "hyperbolic"])
    def test_closed_form_maximizer(self, kind):
        # Oracle: the stationary point of the width profile at 50 digits.  With
        # C = cos(k dd), the right triangle gives cos(k d) = C / cos(k u) for the
        # cap offset d at u = r1 - r, so d'(u) = -1 where
        # C sin(ku) = cos(ku) sqrt(cos^2(ku) - C^2) (cosh, sinh in H^2).
        mp = pytest.importorskip("mpmath")
        rng = rng_for(24)
        for _ in range(150):
            k = 10.0 ** rng.uniform(-0.5, 0.5)
            space = getattr(SpaceCurvature, kind)(k)
            kappa1 = (k * (1.0 + 10.0 ** rng.uniform(-2.0, 0.5)) if kind == "hyperbolic"
                      else 10.0 ** rng.uniform(-0.5, 0.7))
            p = pinch(space, kappa1, kappa1 * (1.0 + 10.0 ** rng.uniform(-6.0, math.log10(3.0))))
            got = width_bound(space, p)
            assert p.r2 <= got.maximizer_r <= p.r1
            r1_ulp = math.ulp(p.r1)
            assert (abs(width_profile(space, p, got.maximizer_r) - got.bound)
                    <= 1e-12 * got.bound + 4.0 * r1_ulp)
            with mp.workdps(50):
                kk, r1 = mp.mpf(k), mp.mpf(p.r1)
                dd = r1 - mp.mpf(p.r2)
                cos, sin, sign = (mp.cos, mp.sin, 1) if kind == "spherical" else (mp.cosh, mp.sinh, -1)
                big_c = cos(kk * dd)

                def stationary(u):
                    c = cos(kk * u)
                    return big_c * sin(kk * u) - c * mp.sqrt(max(sign * (c * c - big_c * big_c), 0))

                u_star = mp.findroot(stationary, (mp.mpf(0), dd), solver="anderson")
                assert abs(mp.mpf(got.maximizer_r) - (r1 - u_star)) <= 4 * r1_ulp

    def test_flat_limit(self):
        for k in (1e-2, 1e-3, 1e-4):
            flat_val = width_bound(FLAT, pinch(FLAT, 1.0, 2.0)).bound
            for space in (SpaceCurvature.spherical(k), SpaceCurvature.hyperbolic(k)):
                val = width_bound(space, pinch(space, 1.0, 2.0)).bound
                assert abs(val - flat_val) / flat_val <= 10.0 * k * k

    def test_maximizer_flat_limit(self):
        # the closed-form curved maximizer approaches the flat one
        flat_r = width_bound(FLAT, pinch(FLAT, 1.0, 2.0)).maximizer_r
        for k in (1e-2, 1e-3):
            for space in (SpaceCurvature.spherical(k), SpaceCurvature.hyperbolic(k)):
                r_star = width_bound(space, pinch(space, 1.0, 2.0)).maximizer_r
                assert abs(r_star - flat_r) <= 1.0 * k * k + 1e-7

    def test_monotone_in_kappa2(self):
        rng = rng_for(23)
        for space in SPACES:
            k1 = space.k + 0.4 if space.kind == "hyperbolic" else 0.7
            k2s = k1 * (1.0 + np.linspace(0.05, 3.0, 40))
            vals = [width_bound(space, pinch(space, k1, k2)).bound for k2 in k2s]
            assert np.all(np.diff(vals) > 0)

    def test_inadmissible_raises(self):
        bogus = PinchSpec(FLAT, 0.0, 1.0, float("inf"), 1.0)
        with pytest.raises(ValueError):
            width_bound(FLAT, bogus)


class TestOuterRadiusBound:
    def test_flat_examples(self):
        p = pinch(FLAT, 1.0, 2.0)
        assert_allclose(outer_radius_bound(FLAT, p, 0.5), 0.5, atol=1e-15)
        assert_allclose(outer_radius_bound(FLAT, p, 1.0), 1.0, atol=1e-15)
        assert_allclose(outer_radius_bound(FLAT, p, 0.75), OUTER_FLAT_075, rtol=1e-14)

    @pytest.mark.parametrize("space", SPACES)
    def test_endpoints_and_interior(self, space):
        rng = rng_for(24)
        for _ in range(30):
            p = random_pinch(space, rng)
            assert_allclose(outer_radius_bound(space, p, p.r2), p.r2, atol=1e-12)
            assert_allclose(outer_radius_bound(space, p, p.r1), p.r1, atol=1e-12)
            r = rng.uniform(p.r2 + 1e-3 * (p.r1 - p.r2), p.r1 - 1e-3 * (p.r1 - p.r2))
            assert outer_radius_bound(space, p, r) > r

    def test_out_of_range(self):
        p = pinch(FLAT, 1.0, 2.0)
        with pytest.raises(ValueError):
            outer_radius_bound(FLAT, p, 0.49)
        with pytest.raises(ValueError):
            outer_radius_bound(FLAT, p, 1.01)


class TestProfiles:
    @pytest.mark.parametrize("space", SPACES)
    def test_width_endpoints_vanish(self, space):
        rng = rng_for(25)
        for _ in range(200):
            p = random_pinch(space, rng)
            assert abs(width_profile(space, p, p.r2)) <= 1e-12
            assert abs(width_profile(space, p, p.r1)) <= 1e-12

    def test_quotient_endpoints_one(self):
        rng = rng_for(26)
        for _ in range(200):
            p = random_pinch(FLAT, rng)
            assert_allclose(quotient_profile(p, p.r2), 1.0, atol=1e-12)
            assert_allclose(quotient_profile(p, p.r1), 1.0, atol=1e-12)

    def test_quotient_profile_values(self):
        p = pinch(FLAT, 1.0, 2.0)
        assert_allclose(quotient_profile(p, 0.5), 1.0, atol=1e-15)
        # radicand (0.5^2 - 0.4^2) = 0.09, sqrt = 0.3, (0.3 + 0.5)/0.6 = 4/3
        assert_allclose(quotient_profile(p, 0.6), 4.0 / 3.0, rtol=1e-14)

    def test_quotient_needs_flat(self):
        p = pinch(SPHERE, 1.0, 2.0)
        with pytest.raises(ValueError, match="flat"):
            quotient_profile(p, p.r2)
        with pytest.raises(ValueError, match="flat"):
            quotient_bound(p)
        with pytest.raises(ValueError, match="flat"):
            quotient_bound_coarse(p)

    @pytest.mark.parametrize("space,k1,k2", [(SpaceCurvature.spherical(1e-5), 1.0, 2.0),
                                             (HYPER, 1e5, 2e5)])
    def test_quotient_needs_flat_near_flat_radii(self, space, k1, k2):
        # r * kappa is within 1e-9 of 1 here, which once passed for flat
        p = PinchSpec.from_curvatures(space, k1, k2)
        assert p.space == space
        with pytest.raises(ValueError, match="flat"):
            quotient_bound(p)


class TestQuotient:
    def test_maximizer_value(self):
        p = pinch(FLAT, 1.0, 2.0)
        # (2*1*0.5 - 0.5*0.5*1) / 1.25 with sqrt(2*R1*R2) = 1
        assert_allclose(quotient_maximizer(p), 0.6, rtol=1e-14)
        assert_allclose(quotient_profile(p, 0.6), 4.0 / 3.0, rtol=1e-14)

    def test_maximizer_near_degenerate(self):
        p = pinch(FLAT, 2.0, 2.0 + 1e-9)
        assert abs(quotient_maximizer(p) - 0.5) <= 1e-8

    def test_maximizer_degenerate_raises(self):
        with pytest.raises(ValueError):
            quotient_maximizer(pinch(FLAT, 2.0, 2.0))

    def test_maximizer_is_interior_max(self):
        rng = rng_for(27)
        for _ in range(100):
            p = random_pinch(FLAT, rng)
            r0 = quotient_maximizer(p)
            assert p.r2 < r0 < p.r1
            h = 1e-7 * (p.r1 - p.r2)
            assert quotient_profile(p, r0 - h) < quotient_profile(p, r0) + 1e-15
            assert quotient_profile(p, r0 + h) < quotient_profile(p, r0) + 1e-15

    def test_bound_examples(self):
        assert_allclose(quotient_bound(pinch(FLAT, 1.0, 2.0)).bound, 4.0 / 3.0, rtol=1e-14)
        assert quotient_bound(pinch(FLAT, 1.5, 1.5)).bound == 1.0
        # exact rational value 12/5 after clearing sqrt(2)
        assert_allclose(quotient_bound(pinch(FLAT, 1.0, 8.0)).bound, 2.4, rtol=1e-14)

    def test_bound_equals_profile_at_maximizer(self):
        rng = rng_for(28)
        for _ in range(200):
            p = random_pinch(FLAT, rng)
            qb = quotient_bound(p)
            assert abs(qb.bound - quotient_profile(p, quotient_maximizer(p))) <= 1e-10 * qb.bound
            assert abs(qb.attained_R / qb.maximizer_r - qb.bound) <= 1e-10

    def test_coarse_bound_orders(self):
        assert quotient_bound_coarse(pinch(FLAT, 1.0, 2.0)) == 2.0
        assert quotient_bound_coarse(pinch(FLAT, 1.5, 1.5)) == 1.0
        assert quotient_bound_coarse(pinch(FLAT, 1.0, 8.0)) == 8.0
        rng = rng_for(29)
        for _ in range(100):
            p = random_pinch(FLAT, rng)
            coarse = quotient_bound_coarse(p)
            sharp = quotient_bound(p).bound
            assert sharp <= coarse + 1e-14
            if p.kappa2 > p.kappa1 * (1 + 1e-9):
                assert sharp < coarse

    def test_monotone_in_kappa2(self):
        k2s = 1.0 + np.linspace(0.05, 6.0, 60)
        vals = [quotient_bound(pinch(FLAT, 1.0, k2)).bound for k2 in k2s]
        assert np.all(np.diff(vals) > 0)


class TestStability:
    def test_constants(self):
        assert_allclose(stability_width_constant(1.0, FLAT), SQRT2 - 1.0, rtol=1e-15)
        assert_allclose(stability_width_constant(1.0, SPHERE), (SQRT2 - 1.0) / 2.0, rtol=1e-15)
        assert_allclose(stability_width_constant(2.0, HYPER), 2.0 * (SQRT2 - 1.0) / 3.0, rtol=1e-15)
        assert_allclose(stability_quotient_constant(), SQRT2 - 1.0, rtol=1e-16)

    def test_result_bundle(self):
        r = stability_result(1.0, FLAT, 0.01)
        assert r.quotient_constant == SQRT2 - 1.0
        assert stability_result(1.0, SPHERE).quotient_constant is None
        with pytest.raises(ValueError):
            stability_result(1.0, FLAT, -1.0)

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            stability_width_constant(0.5, HYPER)  # kappa <= sqrt(-c)

    def test_width_first_order(self):
        # strict inequality plus ratio -> 1 as eps -> 0
        for kappa in (0.5, 1.0, 2.0):
            for space in (FLAT, SPHERE, SpaceCurvature.hyperbolic(kappa / SQRT2)):
                c_const = stability_width_constant(kappa, space)
                prev_gap = None
                for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                    wb = width_bound(space, pinch(space, kappa, (1 + eps) * kappa)).bound
                    ratio = wb / (c_const * eps)
                    assert ratio < 1.0
                    assert ratio >= 1.0 - 10.0 * eps
                    gap = 1.0 - ratio
                    if prev_gap is not None:
                        assert gap < prev_gap
                    prev_gap = gap

    def test_quotient_first_order(self):
        c_const = stability_quotient_constant()
        eps = 0.01
        q = quotient_bound(pinch(FLAT, 1.0, 1.0 + eps)).bound
        assert (q - 1.0) / eps < c_const
        eps = 1e-6
        q = quotient_bound(pinch(FLAT, 1.0, 1.0 + eps)).bound
        assert abs((q - 1.0) / eps - c_const) / c_const < 1e-4
