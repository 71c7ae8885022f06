import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from curvshell.bounds import outer_radius_bound, quotient_bound, quotient_maximizer, width_bound
from curvshell.export import profile_svg, profile_xy, write_profile_csv
from curvshell.geometry import (
    PinchSpec,
    SpaceCurvature,
    axis_point_frame,
    circle_circumference_factor,
    circle_point,
    distance,
    origin,
    point_reflect,
)
from curvshell.spindle import (
    ProfileCurve,
    SpindleSpec,
    arc_point,
    build_spindle,
    join_tangent_mismatch,
    numeric_radii,
    profile_extreme_dists,
    profile_length,
    sample_profile,
    spindle_radii,
)

from conftest import FLAT, HYPER, SPACES, SPHERE, random_pinch, rng_for

# mpmath: join of the flat (1,2) spindle at r_tilde = 0.75
D_TILDE_075 = 0.4330127018922193  # sqrt(0.1875)
OUTER_075 = 0.9330127018922193
TANGENCY_075 = 0.2810349015028136  # atan2(0.25 * 0.5, 1 * sqrt(0.1875))


def spec(space, k1, k2, r_tilde):
    return SpindleSpec(space, PinchSpec.from_curvatures(space, k1, k2), r_tilde)


class TestDegenerate:
    def test_outer_endpoint_circle(self):
        prof = build_spindle(spec(FLAT, 1.0, 2.0, 1.0))
        assert len(prof.segments) == 1
        assert prof.segments[0].radius == 1.0
        assert prof.segments[0].curvature == 1.0
        assert_allclose(numeric_radii(prof), (1.0, 1.0), atol=1e-12)

    def test_inner_endpoint_circle(self):
        prof = build_spindle(spec(FLAT, 1.0, 2.0, 0.5))
        assert len(prof.segments) == 1
        assert prof.segments[0].radius == 0.5
        assert prof.segments[0].curvature == 2.0

    def test_degenerate_pinch(self):
        p = PinchSpec.from_curvatures(SPHERE, 1.5, 1.5)
        prof = build_spindle(SpindleSpec(SPHERE, p, p.r1))
        assert len(prof.segments) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spec(FLAT, 1.0, 2.0, 0.4)
        with pytest.raises(ValueError):
            spec(FLAT, 1.0, 2.0, 1.1)


class TestFlatConstruction:
    def test_geometry_values(self):
        # arcs: right cap, upper main arc, left cap, lower main arc
        right, upper, _, _ = build_spindle(spec(FLAT, 1.0, 2.0, 0.75)).segments
        d_tilde = right.center[0]
        join = arc_point(FLAT, right, right.theta_end)  # the upper-right join
        assert_allclose(d_tilde + right.radius, OUTER_075, rtol=1e-14)
        assert_allclose(d_tilde, D_TILDE_075, rtol=1e-14)
        assert_allclose(-upper.center[1], 0.25, rtol=1e-14)
        assert_allclose(math.atan2(join[1], join[0]), TANGENCY_075, rtol=1e-12)

    def test_four_segments_and_scan(self):
        prof = build_spindle(spec(FLAT, 1.0, 2.0, 0.75))
        assert len(prof.segments) == 4
        lo, hi = numeric_radii(prof)
        assert_allclose(lo, 0.75, atol=1e-9)
        assert_allclose(hi, OUTER_075, atol=1e-9)

    def test_right_triangle(self):
        rng = rng_for(31)
        for _ in range(40):
            p = random_pinch(FLAT, rng)
            r_t = rng.uniform(p.r2, p.r1)
            d_tilde = build_spindle(SpindleSpec(FLAT, p, r_t)).segments[0].center[0]
            lhs = (p.r1 - r_t) ** 2 + d_tilde**2
            assert_allclose(lhs, (p.r1 - p.r2) ** 2, rtol=1e-12, atol=1e-12)


class TestJoinsAndSymmetry:
    @pytest.mark.parametrize("space", SPACES)
    def test_c1_joins(self, space):
        rng = rng_for(32)
        for _ in range(25):
            p = random_pinch(space, rng)
            r_t = rng.uniform(p.r2 + 0.01 * (p.r1 - p.r2), p.r1 - 0.01 * (p.r1 - p.r2))
            prof = build_spindle(SpindleSpec(space, p, r_t))
            assert join_tangent_mismatch(prof) <= 1e-9

    @pytest.mark.parametrize("ratio", [1e3, 1e6, 1e8])
    @pytest.mark.parametrize("space,k1", [(FLAT, 1.0), (SPHERE, 1.0), (HYPER, 1.5)])
    def test_exact_joins_at_wide_pinch_ratios(self, space, k1, ratio):
        # the join angles come from the right triangle in closed form, so the
        # joins stay exact where the cap is ratio times smaller than the main arcs
        p = PinchSpec.from_curvatures(space, k1, k1 * ratio)
        for r_t in np.linspace(p.r2, p.r1, 33):
            prof = build_spindle(SpindleSpec(space, p, float(r_t)))
            assert join_tangent_mismatch(prof) <= 1e-14, r_t

    @pytest.mark.parametrize("space", SPACES)
    def test_central_symmetry(self, space):
        p = random_pinch(space, rng_for(33))
        r_t = 0.5 * (p.r1 + p.r2)
        prof = build_spindle(SpindleSpec(space, p, r_t))
        n = 256
        pts, _ = sample_profile(prof, n)
        reflected = np.array([point_reflect(space, prof.symmetry_center, q) for q in pts])
        partner = np.roll(pts, -n // 2, axis=0)
        # chordal comparison: geodesic distance cannot resolve below ~1e-8
        assert float(np.linalg.norm(reflected - partner, axis=1).max()) <= 1e-9

    @pytest.mark.parametrize("space", SPACES)
    def test_curvature_tags(self, space):
        p = random_pinch(space, rng_for(34))
        prof = build_spindle(SpindleSpec(space, p, 0.5 * (p.r1 + p.r2)))
        _, tags = sample_profile(prof, 512)
        assert set(np.unique(tags)) <= {p.kappa1, p.kappa2}
        assert {p.kappa1, p.kappa2} == set(np.unique(tags))


class TestSampling:
    def test_circle_four_points(self):
        prof = build_spindle(spec(FLAT, 1.0, 2.0, 1.0))
        pts, tags = sample_profile(prof, 4)
        assert pts.shape == (4, 2)
        assert np.all(tags == 1.0)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], float)
        assert_allclose(pts, expected, atol=1e-12)

    def test_closed_traversal_no_duplicate(self):
        prof = build_spindle(spec(FLAT, 1.0, 2.0, 0.7))
        pts, _ = sample_profile(prof, 8)
        step = profile_length(prof) / 8
        closing_gap = np.linalg.norm(pts[0] - pts[-1])
        assert 0.5 * step < closing_gap < 1.01 * step

    def test_scan_stays_in_shell(self):
        prof = build_spindle(spec(FLAT, 1.0, 2.0, 0.75))
        pts, _ = sample_profile(prof, 10_000)
        d = np.linalg.norm(pts, axis=1)
        assert d.min() >= 0.75 - 1e-9
        assert d.max() <= OUTER_075 + 1e-9


class TestRadii:
    def test_flat_width_maximizer(self):
        wb = width_bound(FLAT, PinchSpec.from_curvatures(FLAT, 1.0, 2.0))
        r, big_r = spindle_radii(spec(FLAT, 1.0, 2.0, wb.maximizer_r))
        assert_allclose(big_r - r, wb.bound, atol=1e-12)

    def test_flat_quotient_point(self):
        r, big_r = spindle_radii(spec(FLAT, 1.0, 2.0, 0.6))
        assert_allclose((r, big_r), (0.6, 0.8), rtol=1e-14)

    def test_spherical_ball(self):
        p = PinchSpec.from_curvatures(SPHERE, 1.0, 2.0)
        r, big_r = spindle_radii(SpindleSpec(SPHERE, p, p.r2))
        assert_allclose(r, p.r2, rtol=1e-15)
        assert_allclose(big_r, p.r2, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES)
    def test_numeric_matches_closed_form(self, space):
        rng = rng_for(35)
        for _ in range(10):
            p = random_pinch(space, rng)
            r_t = rng.uniform(p.r2, p.r1)
            s = SpindleSpec(space, p, r_t)
            lo, hi = numeric_radii(build_spindle(s))
            r, big_r = spindle_radii(s)
            assert abs(lo - r) <= 1e-9
            assert abs(hi - big_r) <= 1e-9

    @pytest.mark.parametrize("space", SPACES)
    def test_width_sharpness(self, space):
        rng = rng_for(36)
        for _ in range(10):
            p = random_pinch(space, rng)
            wb = width_bound(space, p)
            lo, hi = numeric_radii(build_spindle(SpindleSpec(space, p, wb.maximizer_r)))
            assert abs((hi - lo) - wb.bound) <= 1e-6

    def test_quotient_sharpness(self):
        rng = rng_for(37)
        for _ in range(10):
            p = random_pinch(FLAT, rng)
            qb = quotient_bound(p)
            lo, hi = numeric_radii(build_spindle(SpindleSpec(FLAT, p, quotient_maximizer(p))))
            assert abs(hi / lo - qb.bound) <= 1e-8 * qb.bound

    @pytest.mark.parametrize("space", SPACES)
    def test_family_coverage(self, space):
        p = random_pinch(space, rng_for(38))
        rs = np.linspace(p.r2, p.r1, 33)
        outer = [spindle_radii(SpindleSpec(space, p, r))[1] for r in rs]
        assert_allclose(outer[0], p.r2, atol=1e-12)
        assert_allclose(outer[-1], p.r1, atol=1e-12)
        # continuous: no jumps beyond the grid modulus of the square-root profile
        gaps = np.abs(np.diff(outer))
        assert gaps.max() <= 2.0 * math.sqrt((p.r1 - p.r2) * (rs[1] - rs[0])) + 1e-12

    @pytest.mark.parametrize("space", SPACES)
    def test_outer_equality_family(self, space):
        p = random_pinch(space, rng_for(39))
        for r_t in np.linspace(p.r2, p.r1, 9):
            prof = build_spindle(SpindleSpec(space, p, r_t))
            _, hi = numeric_radii(prof)
            assert abs(hi - outer_radius_bound(space, p, r_t)) <= 1e-8


def _dense_extreme_dists(profile, points, n=2**14):
    """(min, max) distance to n + 1 evenly spaced points of every arc, ends
    included, and the largest arc-length spacing of those samples."""
    space = profile.space
    lo = np.full(len(points), np.inf)
    hi = np.full(len(points), -np.inf)
    spacing = 0.0
    for arc in profile.segments:
        samples = arc_point(space, arc, np.linspace(arc.theta_start, arc.theta_end, n + 1))
        d = distance(space, points[:, None, :], samples[None, :, :])
        lo, hi = np.minimum(lo, d.min(axis=1)), np.maximum(hi, d.max(axis=1))
        spacing = max(spacing, circle_circumference_factor(space, arc.radius) * arc.span / n)
    return lo, hi, spacing


@st.composite
def _spindles_and_points(draw):
    kind = draw(st.sampled_from(["flat", "spherical", "hyperbolic"]))
    k = draw(st.floats(0.3, 3.0))
    if kind == "flat":
        space, kappa1 = FLAT, 10.0 ** draw(st.floats(-0.5, 0.7))
    elif kind == "spherical":
        # kappa1 >= k / 2 keeps r1 <= atan(2) / k, so every query point stays
        # closer than pi / k to every arc center
        space = SpaceCurvature.spherical(k)
        kappa1 = k * draw(st.floats(0.5, 4.0))
    else:
        space = SpaceCurvature.hyperbolic(k)
        kappa1 = k * (1.0 + draw(st.floats(0.05, 3.0)))
    pinch = PinchSpec.from_curvatures(space, kappa1, kappa1 * (1.0 + draw(st.floats(0.05, 3.0))))
    r_tilde = pinch.r2 + draw(st.floats(0.0, 1.0)) * (pinch.r1 - pinch.r2)
    spec = SpindleSpec(space, pinch, r_tilde)
    big_r = spindle_radii(spec)[1]
    # geodesic polar coordinates about the center, inside and outside the body
    polar = draw(st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 2.0 * math.pi)),
                          min_size=1, max_size=6))
    o = origin(space)
    _, e1, e2 = axis_point_frame(space, 0, 0.0)
    points = np.array([circle_point(space, o, e1, e2, s * big_r, beta) for s, beta in polar])
    return spec, points


class TestProfileExtremeDists:
    @settings(max_examples=60, deadline=None)
    @given(_spindles_and_points())
    def test_matches_dense_sampling(self, case):
        spec, points = case
        prof = build_spindle(spec)
        scale = 1e-12 * spec.pinch.r1
        ratio = spec.pinch.r1 / spec.pinch.r2
        # the whole profile, and each arc alone, where the extremes are often
        # clamped to an end of the arc's span
        singles = [ProfileCurve(prof.space, (arc,), prof.symmetry_center) for arc in prof.segments]
        for part in [prof] + singles:
            lo, hi = profile_extreme_dists(part, points)
            ref_lo, ref_hi, h = _dense_extreme_dists(part, points)
            # exact extremes bound every sample: below the nearest, above the farthest
            assert (lo <= ref_lo + scale).all() and (hi >= ref_hi - scale).all()
            # and no sample is further off than the spacing allows: h / 2 along
            # the arc, or the second-order h^2 (r1 / r2) / d at a smooth extremum
            for got, ref in ((lo, ref_lo), (hi, ref_hi)):
                tol = np.minimum(h / 2.0, 2.0 * ratio * h * h / np.maximum(ref, 1e-300)) + scale
                assert (np.abs(got - ref) <= tol).all(), (got, ref, tol)

    @pytest.mark.parametrize("space", SPACES)
    def test_broadcasts_over_points(self, space):
        p = random_pinch(space, rng_for(71))
        prof = build_spindle(SpindleSpec(space, p, 0.4 * p.r1 + 0.6 * p.r2))
        pts, _ = sample_profile(prof, 12)
        lo, hi = profile_extreme_dists(prof, pts.reshape(3, 4, -1))
        assert lo.shape == hi.shape == (3, 4)
        one = [profile_extreme_dists(prof, q) for q in pts]
        assert_allclose(lo.ravel(), [a for a, _ in one], rtol=0, atol=1e-15)
        assert_allclose(hi.ravel(), [b for _, b in one], rtol=0, atol=1e-15)
        assert np.abs(lo).max() <= 1e-7  # sampled points lie on the profile

    @pytest.mark.parametrize("space", SPACES)
    def test_center_of_circle(self, space):
        p = random_pinch(space, rng_for(72))
        prof = build_spindle(SpindleSpec(space, p, p.r1))
        assert profile_extreme_dists(prof, prof.symmetry_center) == (p.r1, p.r1)

    @pytest.mark.parametrize("space", SPACES)
    def test_exact_at_the_symmetry_center(self, space):
        p = random_pinch(space, rng_for(73))
        for r_t in np.linspace(p.r2, p.r1, 9):
            s = SpindleSpec(space, p, float(r_t))
            got = profile_extreme_dists(build_spindle(s), origin(space))
            assert_allclose(got, spindle_radii(s), rtol=1e-14, atol=0)


class TestSvg:
    @pytest.mark.parametrize("space,k1,k2", [(FLAT, 1.0, 2.0), (SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_shell_circles_have_the_closed_form_radii(self, space, k1, k2):
        p = PinchSpec.from_curvatures(space, k1, k2)
        for r_t in np.linspace(p.r2, p.r1, 5):
            s = SpindleSpec(space, p, float(r_t))
            svg = profile_svg(build_spindle(s), n=64)
            radii = [float(r) for r in re.findall(r'<circle [^>]*r="([^"]+)"[^>]*stroke-dasharray', svg)]
            assert len(radii) == 2
            assert_allclose(radii, spindle_radii(s), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("space,k1,k2", [(FLAT, 1.0, 2.0), (SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_path_matches_per_point_formatting(self, space, k1, k2):
        p = PinchSpec.from_curvatures(space, k1, k2)
        for r_t in np.linspace(p.r2, p.r1, 5):
            profile = build_spindle(SpindleSpec(space, p, float(r_t)))
            xy, _ = profile_xy(profile, 257)
            want = " L ".join(f"{x:.6f} {y:.6f}" for x, y in zip(xy[:, 0], -xy[:, 1]))
            assert f'<path d="M {want} Z"' in profile_svg(profile, n=257)


class TestCsv:
    @pytest.mark.parametrize("space,k1,k2", [(FLAT, 1.0, 2.0), (SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_rows_match_per_row_formatting(self, space, k1, k2, tmp_path):
        # the curvature tag is formatted once per segment, and the file holds
        # the bytes of a repr of every float of every row
        p = PinchSpec.from_curvatures(space, k1, k2)
        path = tmp_path / "profile.csv"
        for r_t in np.linspace(p.r2, p.r1, 5):
            profile = build_spindle(SpindleSpec(space, p, float(r_t)))
            xy, tags = profile_xy(profile, 257)
            rows = np.column_stack([xy, tags]).tolist()
            want = "x,y,kappa\n" + "".join(f"{x!r},{y!r},{kap!r}\n" for x, y, kap in rows)
            write_profile_csv(profile, path, n=257)
            assert path.read_bytes() == want.encode()
