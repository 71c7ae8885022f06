import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvshell.bodies import (
    GRID_N,
    ArcSupportCurve,
    PINCH_MARGIN,
    RevolutionBody,
    THETA_GRID,
    TrigSupportCurve,
    _mode_table,
    angle_grid,
    curvature_range,
    random_pinched_curve,
    spindle_support_curve,
    unit_vectors,
)
from curvshell.bounds import width_bound
from curvshell.geometry import PinchSpec, SpaceCurvature
from curvshell.spindle import SpindleSpec, profile_extreme_dists
from curvshell.verify import check_bounds, rolling_check

from conftest import (
    FLAT,
    HYPER,
    SPHERE,
    closure_residual,
    disk_shell_profile,
    random_pinch,
    rng_for,
)

PINCH_12 = PinchSpec.from_curvatures(FLAT, 1.0, 2.0)


class TestTrigSupportCurve:
    def test_circle(self):
        c = TrigSupportCurve(0.75)
        assert_allclose(c.h(THETA_GRID), 0.75)
        assert_allclose(c.rho(THETA_GRID), 0.75)
        assert_allclose(curvature_range(c), (4.0 / 3.0, 4.0 / 3.0), rtol=1e-12)

    def test_boundary_consistency(self):
        body = random_pinched_curve(PINCH_12, seed=3, modes=6)
        th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        x = body.boundary(th)
        # support identity: <x(t), u(t)> = h(t)
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert_allclose((x * u).sum(axis=1), body.h(th), atol=1e-12)
        # finite-difference curvature radius |x'| = rho
        eps = 1e-6
        xp = (body.boundary(th + eps) - body.boundary(th - eps)) / (2 * eps)
        assert_allclose(np.linalg.norm(xp, axis=1), body.rho(th), atol=1e-6)

    def test_translation_moves_h_only(self):
        body = random_pinched_curve(PINCH_12, seed=5)
        t = np.array([0.3, -0.2])
        moved = body.translate(t)
        th = THETA_GRID[::64]
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert_allclose(moved.h(th), body.h(th) + u @ t, atol=1e-14)
        assert_allclose(moved.rho(th), body.rho(th), atol=1e-14)
        assert_allclose(moved.boundary(th), body.boundary(th) + t, atol=1e-13)

    def test_rotation(self):
        body = random_pinched_curve(PINCH_12, seed=6)
        alpha = 0.7
        rot = body.rotate(alpha)
        th = THETA_GRID[::32]
        assert_allclose(rot.h(th + alpha), body.h(th), atol=1e-13)
        assert_allclose(rot.rho(th + alpha), body.rho(th), atol=1e-13)

    def test_scale(self):
        body = random_pinched_curve(PINCH_12, seed=7)
        lam = 2.5
        big = body.scale(lam)
        kmin, kmax = curvature_range(body)
        kmin2, kmax2 = curvature_range(big)
        assert_allclose((kmin2, kmax2), (kmin / lam, kmax / lam), rtol=1e-12)
        with pytest.raises(ValueError):
            body.scale(0.0)


# the shared grids: the support grid and rolling_check's default sample and probe grids
SHARED_GRIDS = (THETA_GRID, angle_grid(100), angle_grid(512))
TABLED = ("h", "h_prime", "rho", "rho_prime", "rho_second", "boundary")


class TestGridTables:
    @pytest.mark.parametrize("modes", [2, 8, 16])
    def test_tables_match_direct_evaluation(self, modes):
        # a copy of a grid is not the shared array, so it is evaluated directly
        base = random_pinched_curve(PINCH_12, seed=modes, modes=modes)
        bodies = (base, base.translate([0.3, -0.2]), base.rotate(0.7), base.scale(3.5),
                  base.translate([-1e-3, 2.0]).rotate(-2.1).scale(1e-6))
        for grid in SHARED_GRIDS:
            direct = grid.copy()
            for body in bodies:
                for name in TABLED:
                    got, want = getattr(body, name)(grid), getattr(body, name)(direct)
                    assert np.array_equal(got, want), (name, grid.size)
            assert np.array_equal(unit_vectors(grid), unit_vectors(direct))

    def test_arc_body_boundary_matches(self):
        body = spindle_support_curve(PINCH_12, 0.7)
        for grid in SHARED_GRIDS:
            assert np.array_equal(body.boundary(grid), body.boundary(grid.copy()))

    def test_grids_and_tables_are_read_only(self):
        body = random_pinched_curve(PINCH_12, seed=1)
        for grid in SHARED_GRIDS:
            body.h(grid)
            for table in (grid, _mode_table(grid.size, body.rho_cos.size)):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1.0
        assert angle_grid(2048) is THETA_GRID

    def test_other_grids_are_evaluated_directly(self):
        # other sizes get a fresh grid with the same spacing, so no query adds a table
        grid = angle_grid(101)
        assert grid.flags.writeable and angle_grid(101) is not grid
        assert np.array_equal(grid, np.arange(101) * (2.0 * math.pi / 101))
        body = random_pinched_curve(PINCH_12, seed=2)
        before = _mode_table.cache_info()
        for name in TABLED:
            getattr(body, name)(grid)
        assert _mode_table.cache_info() == before


class TestSingleEvaluator:
    @pytest.mark.parametrize("k2", [1.1, 2.0, 5.0])
    def test_body_matches_its_stack(self, k2):
        # a body and its stack of one read the same coefficients and table
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
        for seed in range(25):
            base = random_pinched_curve(pinch, seed=seed)
            for body in (base, base.translate([0.3, -0.2]), base.rotate(0.7), base.scale(3.5)):
                want = body.stack.grid[:, 0]
                for name, row in zip(("h", "h_prime", "rho"), want):
                    assert np.array_equal(getattr(body, name)(THETA_GRID), row), (name, seed)

    @pytest.mark.parametrize("body", [random_pinched_curve(PINCH_12, seed=8).translate([0.1, 0.2]),
                                      spindle_support_curve(PINCH_12, 0.7)])
    def test_scalar_and_array_angles(self, body):
        thetas = THETA_GRID[::171].reshape(3, 4)
        for name in TABLED if isinstance(body, TrigSupportCurve) else TABLED[:4] + TABLED[5:]:
            f = getattr(body, name)
            point = f(0.3)
            values = f(thetas)
            if name == "boundary":
                assert point.shape == (2,) and values.shape == (3, 4, 2)
            else:
                assert np.ndim(point) == 0 and values.shape == (3, 4)
            flat = np.stack([f(t) for t in thetas.ravel()])
            assert_allclose(values.reshape(flat.shape), flat, rtol=0, atol=1e-15)

    def test_body_caches_no_grid(self):
        # a checked body keeps only its coefficients: the benchmark holds
        # many bodies, and a cached stack would pin its (3, 1, GRID_N) grid
        body = random_pinched_curve(PINCH_12, seed=4)
        check_bounds(body, PINCH_12)
        rolling_check(body, PINCH_12)
        seen, todo, sizes = set(), [vars(body)], []
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                sizes.append(obj.size)
            elif isinstance(obj, dict):
                todo += obj.values()
            elif isinstance(obj, (list, tuple)):
                todo += obj
            elif hasattr(obj, "__dict__"):
                todo.append(vars(obj))
        assert sizes and max(sizes) < GRID_N


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = random_pinched_curve(PINCH_12, seed=42, modes=6)
        b = random_pinched_curve(PINCH_12, seed=42, modes=6)
        assert_allclose(a.rho_cos, b.rho_cos, rtol=0, atol=0)
        assert_allclose(a.rho_sin, b.rho_sin, rtol=0, atol=0)
        c = random_pinched_curve(PINCH_12, seed=43, modes=6)
        assert not np.allclose(a.rho_cos, c.rho_cos)

    @pytest.mark.parametrize("space,k1,k2", [(SpaceCurvature.spherical(1e-5), 1.0, 2.0),
                                             (HYPER, 1e5, 2e5)])
    def test_refuses_curved_pinchings(self, space, k1, k2):
        # near-flat radii (r * kappa within 1e-9 of 1) are still curved
        p = PinchSpec.from_curvatures(space, k1, k2)
        with pytest.raises(ValueError, match="flat"):
            random_pinched_curve(p, seed=0)
        with pytest.raises(ValueError, match="flat"):
            spindle_support_curve(p, 0.5 * (p.r1 + p.r2))

    def test_pinched_within_band(self):
        for seed in range(40):
            body = random_pinched_curve(PINCH_12, seed=seed, modes=6)
            kmin, kmax = curvature_range(body)
            assert kmin >= 1.0 - 1e-8
            assert kmax <= 2.0 + 1e-8

    def test_band_edges_are_reached(self):
        # the rescaling pushes one rho extremum onto the margin inside the band
        for seed in range(20):
            body = random_pinched_curve(PINCH_12, seed=seed)
            lo, hi, _, _ = body.rho_range()
            assert lo >= 0.5 + PINCH_MARGIN - 1e-12
            assert hi <= 1.0 - PINCH_MARGIN + 1e-12
            touches_low = abs(lo - (0.5 + PINCH_MARGIN)) < 1e-9
            touches_high = abs(hi - (1.0 - PINCH_MARGIN)) < 1e-9
            assert touches_low or touches_high

    @pytest.mark.parametrize("scale", [1e-6, 1e-150])
    def test_scaled_pinching_scales_the_body(self, scale):
        # the margin scales with r1, so the generator commutes with scaling
        pinch = PinchSpec.from_curvatures(FLAT, 1.0 / scale, 2.0 / scale)
        for seed in (0, 3, 17):
            unit = random_pinched_curve(PINCH_12, seed=seed)
            small = random_pinched_curve(pinch, seed=seed)
            assert small.rho_cos.any()
            assert_allclose(small.h0, scale * unit.h0, rtol=1e-12, atol=0)
            for got, want in ((small.rho_cos, unit.rho_cos), (small.rho_sin, unit.rho_sin)):
                assert_allclose(got, scale * want, rtol=0, atol=1e-12 * scale * unit.h0)

    def test_closure(self):
        for seed in (0, 11, 99):
            body = random_pinched_curve(PINCH_12, seed=seed)
            assert closure_residual(body) <= 1e-10

    def test_origin_interior(self):
        # support values stay positive: the origin is inside every generated body
        for seed in range(25):
            body = random_pinched_curve(PINCH_12, seed=seed)
            assert body.h(THETA_GRID).min() > 0.0

    def test_degenerate_pinch_gives_circle(self):
        p = PinchSpec.from_curvatures(FLAT, 1.0, 1.0)
        body = random_pinched_curve(p, seed=1)
        assert_allclose(body.rho(THETA_GRID), 1.0, atol=1e-15)
        kmin, kmax = curvature_range(body)
        assert_allclose((kmin, kmax), (1.0, 1.0), rtol=1e-12)

    def test_rejects_curved_pinch_and_bad_modes(self):
        with pytest.raises(ValueError, match="flat"):
            random_pinched_curve(PinchSpec.from_curvatures(SPHERE, 1.0, 2.0), seed=0)
        with pytest.raises(ValueError):
            random_pinched_curve(PINCH_12, seed=0, modes=1)
        with pytest.raises(ValueError, match="at most 1023"):
            random_pinched_curve(PINCH_12, seed=0, modes=1024)


class TestArcSupportCurve:
    def test_matches_profile_scan(self):
        body = spindle_support_curve(PINCH_12, 0.75)
        d = np.linalg.norm(body.boundary(THETA_GRID), axis=1)
        assert_allclose(d.min(), 0.75, atol=1e-9)
        assert_allclose(d.max(), 0.9330127018922193, atol=1e-9)

    def test_curvature_range_exact(self):
        body = spindle_support_curve(PINCH_12, 0.75)
        assert_allclose(curvature_range(body), (1.0, 2.0), atol=1e-6)

    def test_support_is_c1(self):
        body = spindle_support_curve(PINCH_12, 0.7)
        eps = 1e-9
        for t in (arc.theta_start for arc in body.profile.segments):  # the join normals
            assert abs(body.h(t + eps) - body.h(t - eps)) <= 1e-8
            assert abs(body.h_prime(t + eps) - body.h_prime(t - eps)) <= 1e-6

    def test_closure(self):
        assert closure_residual(spindle_support_curve(PINCH_12, 0.8)) <= 1e-10
        # an arc body without the spindle's symmetry: a grid rule reads 8.9e-3
        body = ArcSupportCurve(disk_shell_profile([(0.3, 0), (-0.2, 0.4), (-0.2, -0.4)], 1.5, 0.5))
        assert closure_residual(body) <= 1e-12

    def test_degenerate_circle(self):
        body = spindle_support_curve(PINCH_12, 1.0)
        assert_allclose(body.h(THETA_GRID), 1.0, atol=1e-12)

    def test_any_arc_profile(self):
        # the outer parallel body of a disk triangle: boundary points lie on
        # the profile, and rho takes the arc radii
        profile = disk_shell_profile([(0.3, 0.0), (-0.2, 0.4), (-0.2, -0.4)], 1.5, 0.5)
        body = ArcSupportCurve(profile)
        assert len(profile.segments) == 6
        assert_allclose(profile_extreme_dists(profile, body.boundary(THETA_GRID))[0], 0.0,
                        atol=1e-14)
        assert set(body.rho(THETA_GRID)) == {0.5, 2.0}
        assert body.rho_range()[:2] == (0.5, 2.0)

    def test_rejects_curved(self):
        with pytest.raises(ValueError, match="flat"):
            spindle_support_curve(PinchSpec.from_curvatures(SPHERE, 1.0, 2.0), 0.6)


class TestRevolutionBody:
    @pytest.mark.parametrize("space_idx", [1, 2])
    def test_curvature_range_from_segments(self, space_idx):
        space = [None, SPHERE, HYPER][space_idx]
        p = random_pinch(space, rng_for(41))
        wb = width_bound(space, p)
        body = RevolutionBody.spindle(SpindleSpec(space, p, wb.maximizer_r))
        kmin, kmax = curvature_range(body)
        assert_allclose((kmin, kmax), (p.kappa1, p.kappa2), rtol=1e-9)
