import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvshell.geometry import (
    PinchSpec,
    SpaceCurvature,
    admissible,
    angle_in_frame,
    axis_point_frame,
    circle_circumference_factor,
    circle_point,
    circle_tangent,
    curvature_from_sphere_radius,
    distance,
    law_of_cosines_angle,
    law_of_cosines_side,
    origin,
    point_reflect,
    sphere_radius_from_curvature,
)

from conftest import FLAT, HYPER, SPACES, SPHERE, random_pinch, rng_for

# mpmath, 50 digits: acoth(2) = log(3)/2
ACOTH_2 = 0.5493061443340548


class TestSpaceCurvature:
    def test_constructors(self):
        assert FLAT.c == 0.0 and FLAT.k == 0.0 and FLAT.is_flat
        assert SPHERE.c == 1.0 and SPHERE.k == 1.0
        assert HYPER.c == -1.0 and HYPER.k == 1.0
        assert SpaceCurvature.spherical(2.0).c == 4.0
        assert SpaceCurvature.hyperbolic(0.5).c == -0.25

    def test_from_c(self):
        assert SpaceCurvature.from_c(0.0).is_flat
        assert SpaceCurvature.from_c(4.0).kind == "spherical"
        assert SpaceCurvature.from_c(-9.0).k == 3.0

    def test_kind_sign_consistency(self):
        with pytest.raises(ValueError):
            SpaceCurvature(1.0, "flat")
        with pytest.raises(ValueError):
            SpaceCurvature(-1.0, "spherical")
        with pytest.raises(ValueError):
            SpaceCurvature.spherical(0.0)


class TestAdmissible:
    def test_flat(self):
        assert admissible(FLAT, 1.0, 2.0)
        assert not admissible(FLAT, 0.0, 1.0)
        assert not admissible(FLAT, 2.0, 1.0)

    def test_spherical_allows_zero(self):
        assert admissible(SPHERE, 0.0, 1.0)
        assert not admissible(SPHERE, -0.1, 1.0)

    def test_hyperbolic_strict(self):
        assert not admissible(HYPER, 1.0, 2.0)
        assert admissible(HYPER, 1.0 + 1e-9, 2.0)
        assert not admissible(SpaceCurvature.hyperbolic(2.0), 1.5, 3.0)

    def test_total_on_nan(self):
        assert not admissible(FLAT, float("nan"), 1.0)
        assert not admissible(FLAT, 1.0, float("nan"))

    @pytest.mark.parametrize("space,k1,k2,needle", [
        (FLAT, 1.0, math.inf, "finite"),
        (FLAT, 2.0, 1.0, "kappa2 = 1.0 must be >= kappa1 = 2.0"),
        (FLAT, 0.0, 1.0, "flat geometry requires kappa1 > 0"),
        (SPHERE, -0.1, 1.0, "spherical geometry requires kappa1 >= 0"),
        (HYPER, 1.0, 2.0, "sqrt(-c)"),
    ])
    def test_pinch_names_the_broken_condition(self, space, k1, k2, needle):
        assert not admissible(space, k1, k2)
        with pytest.raises(ValueError, match=re.escape(needle)):
            PinchSpec.from_curvatures(space, k1, k2)


class TestRadiusCurvature:
    def test_flat_reciprocal(self):
        assert sphere_radius_from_curvature(FLAT, 2.0) == 0.5
        assert curvature_from_sphere_radius(FLAT, 0.5) == 2.0

    def test_spherical_values(self):
        assert_allclose(sphere_radius_from_curvature(SPHERE, 1.0), math.pi / 4, rtol=1e-15)
        assert_allclose(curvature_from_sphere_radius(SPHERE, math.pi / 4), 1.0, rtol=1e-12)
        # kappa = 0 sits on the hemisphere branch endpoint
        assert_allclose(sphere_radius_from_curvature(SPHERE, 0.0), math.pi / 2, rtol=1e-15)
        assert abs(curvature_from_sphere_radius(SPHERE, math.pi / 2)) < 1e-12

    def test_hyperbolic_value(self):
        assert_allclose(sphere_radius_from_curvature(HYPER, 2.0), ACOTH_2, rtol=1e-14)
        assert_allclose(curvature_from_sphere_radius(HYPER, ACOTH_2), 2.0, rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sphere_radius_from_curvature(FLAT, 0.0)
        with pytest.raises(ValueError):
            sphere_radius_from_curvature(HYPER, 1.0)
        with pytest.raises(ValueError):
            curvature_from_sphere_radius(SPHERE, math.pi / 2 + 1e-6)
        with pytest.raises(ValueError):
            curvature_from_sphere_radius(FLAT, 0.0)

    @pytest.mark.parametrize("space", SPACES)
    def test_round_trip_1000(self, space):
        rng = rng_for(11)
        for _ in range(1000):
            if space.kind == "hyperbolic":
                kappa = space.k * (1.0 + 10.0 ** rng.uniform(-3, 2))
            else:
                kappa = 10.0 ** rng.uniform(-2, 2)
            r = sphere_radius_from_curvature(space, kappa)
            back = curvature_from_sphere_radius(space, r)
            assert abs(back - kappa) <= 1e-12 * kappa

    @pytest.mark.parametrize("space", SPACES)
    def test_strictly_decreasing(self, space):
        base = space.k + 0.05 if space.kind == "hyperbolic" else 0.05
        kappas = base + np.linspace(0.0, 5.0, 64)
        radii = [sphere_radius_from_curvature(space, k) for k in kappas]
        assert np.all(np.diff(radii) < 0)

    @pytest.mark.parametrize("k", [1e-3, 1e-5])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_flat_limit(self, k, kappa):
        # R(+-k^2, kappa) = 1/kappa -+ k^2/(3 kappa^3) + O(k^4)
        for space in (SpaceCurvature.spherical(k), SpaceCurvature.hyperbolic(k)):
            err = abs(sphere_radius_from_curvature(space, kappa) - 1.0 / kappa)
            assert err <= 0.5 * k * k / kappa**3


class TestLawOfCosines:
    def test_flat_pythagorean(self):
        assert_allclose(law_of_cosines_side(FLAT, 3.0, 4.0, math.pi / 2), 5.0, rtol=1e-15)

    def test_degenerate_angles(self):
        assert_allclose(law_of_cosines_side(SPHERE, 0.9, 0.4, 0.0), 0.5, atol=1e-12)
        assert_allclose(law_of_cosines_side(HYPER, 0.5, 0.5, math.pi), 1.0, rtol=1e-12)

    def test_angle_examples(self):
        assert_allclose(law_of_cosines_angle(FLAT, 3.0, 4.0, 5.0), math.pi / 2, rtol=1e-15)
        assert_allclose(law_of_cosines_angle(FLAT, 1.0, 1.0, 1.0), math.pi / 3, rtol=1e-14)

    def test_spherical_round_trip(self):
        d = law_of_cosines_side(SPHERE, 0.4, 0.5, 1.0)
        assert_allclose(law_of_cosines_angle(SPHERE, 0.4, 0.5, d), 1.0, atol=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    def test_round_trip_random(self, space):
        rng = rng_for(12)
        for _ in range(200):
            a, b = rng.uniform(0.05, 1.2, size=2)
            gamma = rng.uniform(0.05, math.pi - 0.05)
            d = law_of_cosines_side(space, a, b, gamma)
            assert_allclose(law_of_cosines_angle(space, a, b, d), gamma, atol=1e-10)

    @pytest.mark.parametrize("space", SPACES)
    def test_monotone_in_angle(self, space):
        rng = rng_for(13)
        gammas = np.linspace(1e-3, math.pi - 1e-3, 80)
        for _ in range(40):
            a, b = rng.uniform(0.05, 1.2, size=2)
            d = [law_of_cosines_side(space, a, b, g) for g in gammas]
            assert np.all(np.diff(d) > 0)

    def test_flat_limit(self):
        rng = rng_for(14)
        for _ in range(40):
            a, b = rng.uniform(0.1, 1.5, size=2)
            gamma = rng.uniform(0.1, math.pi - 0.1)
            d0 = law_of_cosines_side(FLAT, a, b, gamma)
            for k in (1e-3, 1e-5):
                cap = 2.0 * (a + b) ** 3 * k * k + 1e-13
                ds = law_of_cosines_side(SpaceCurvature.spherical(k), a, b, gamma)
                dh = law_of_cosines_side(SpaceCurvature.hyperbolic(k), a, b, gamma)
                assert abs(ds - d0) <= cap
                assert abs(dh - d0) <= cap

    def test_clamping_and_errors(self):
        # within 1e-12 of the boundary: clamped, not an error
        assert_allclose(law_of_cosines_angle(FLAT, 1.0, 1.0, 2.0), math.pi, rtol=1e-12)
        with pytest.raises(ValueError):
            law_of_cosines_angle(FLAT, 1.0, 1.0, 2.1)
        with pytest.raises(ValueError):
            law_of_cosines_side(FLAT, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            law_of_cosines_side(FLAT, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            law_of_cosines_side(SPHERE, math.pi, 0.3, 1.0)


class TestPinchSpec:
    def test_flat_radii(self):
        p = PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
        assert (p.r1, p.r2) == (1.0, 0.5)
        assert not p.is_degenerate

    def test_ordering(self):
        for space in SPACES:
            p = random_pinch(space, rng_for(15))
            assert p.r2 <= p.r1
            assert p.kappa1 <= p.kappa2

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError):
            PinchSpec.from_curvatures(FLAT, 0.0, 1.0)
        with pytest.raises(ValueError):
            PinchSpec.from_curvatures(HYPER, 1.0, 2.0)


class TestPointOps:
    @pytest.mark.parametrize("space", SPACES)
    def test_circle_points_at_radius(self, space):
        center, u, v = axis_point_frame(space, 0, 0.3)
        thetas = np.linspace(0, 2 * math.pi, 17)
        pts = circle_point(space, center, u, v, 0.4, thetas)
        assert_allclose(distance(space, center, pts), 0.4, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_axis_point_distance(self, space, axis):
        for t in (-0.7, 0.2, 1.1):
            p, _, _ = axis_point_frame(space, axis, t)
            assert_allclose(distance(space, origin(space), p), abs(t), atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_angle_in_frame_round_trip(self, space):
        center, u, v = axis_point_frame(space, 1, -0.25)
        for theta in (-2.0, 0.3, 1.4, 3.0):
            p = circle_point(space, center, u, v, 0.35, theta)
            got = angle_in_frame(space, center, u, v, p)
            expect = math.atan2(math.sin(theta), math.cos(theta))
            assert_allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_point_reflect_isometry(self, space):
        c = origin(space)
        p, _, _ = axis_point_frame(space, 0, 0.6)
        q, _, _ = axis_point_frame(space, 1, 0.4)
        rp, rq = point_reflect(space, c, p), point_reflect(space, c, q)
        assert_allclose(distance(space, rp, rq), distance(space, p, q), atol=1e-12)
        assert_allclose(distance(space, c, rp), 0.6, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_circle_tangent_is_tangent(self, space):
        center, u, v = axis_point_frame(space, 0, 0.15)
        theta = 0.8
        p = circle_point(space, center, u, v, 0.3, theta)
        tan = circle_tangent(space, center, u, v, 0.3, theta)
        eps = 1e-6
        p2 = circle_point(space, center, u, v, 0.3, theta + eps)
        chord = (p2 - p) / np.linalg.norm(p2 - p)
        assert float(chord @ tan) > 0.99

    def test_circumference_factor(self):
        assert circle_circumference_factor(FLAT, 0.7) == 0.7
        assert_allclose(circle_circumference_factor(SPHERE, 0.7), math.sin(0.7), rtol=1e-15)
        assert_allclose(circle_circumference_factor(HYPER, 0.7), math.sinh(0.7), rtol=1e-15)


class TestScaleRange:
    @pytest.mark.parametrize("make", [
        lambda: SpaceCurvature.spherical(math.inf),
        lambda: SpaceCurvature.hyperbolic(1e-300),
        lambda: SpaceCurvature.spherical(1e160),
        lambda: SpaceCurvature.from_c(math.nan),
        lambda: SpaceCurvature.from_c(-1e-320),
        lambda: PinchSpec.from_curvatures(FLAT, 1.0, math.inf),
        lambda: PinchSpec.from_curvatures(FLAT, 1e-200, 1.0),
        lambda: PinchSpec.from_curvatures(FLAT, 1.0, 1e200),
    ])
    def test_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_edges_accepted(self):
        PinchSpec.from_curvatures(FLAT, 1e-150, 1e150)
        SpaceCurvature.hyperbolic(1e-150)
        SpaceCurvature.spherical(1e150)
