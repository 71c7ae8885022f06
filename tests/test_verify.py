import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvshell._flat as flat
import curvshell.bodies as bodies
import curvshell.spindle as spindle
import curvshell.verify as verify
from curvshell import cli
from curvshell.bodies import (
    THETA_GRID,
    ArcSupportCurve,
    RevolutionBody,
    TrigStack,
    TrigSupportCurve,
    random_pinched_curve,
    random_pinched_stack,
    spindle_support_curve,
    unit_vectors,
)
from curvshell.bounds import outer_radius_bound, quotient_bound, quotient_maximizer, width_bound
from curvshell.geometry import (
    PinchSpec,
    SpaceCurvature,
    axis_foot,
    axis_point_frame,
    axis_points,
    circle_point,
    curvature_from_sphere_radius,
    law_of_cosines_angle,
    origin,
)
from curvshell.spindle import (
    Arc,
    ProfileCurve,
    SpindleSpec,
    build_spindle,
    profile_extreme_dists,
    sample_profile,
    spindle_radii,
)
from curvshell.verify import (
    check_bounds,
    circumscribed_from_center,
    inscribed_ball,
    rolling_check,
    summarize_worst_margins,
    verify_batch,
    write_jsonl,
)
from curvshell._flat import _inscribed_support, _maximin_lp, _support_gap_minima

from conftest import (
    FLAT,
    HYPER,
    SPACES,
    SPHERE,
    cut_lens_profile,
    disk_shell_profile,
    fejer_body,
    random_pinch,
    rng_for,
)

PINCH_12 = PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
GRID = THETA_GRID.size
_U_GRID = unit_vectors(THETA_GRID)


def _highs_maximin(u, h):
    """Reference solution (o_x, o_y, t) of max t s.t. <o, u_j> + t <= h_j by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([u, np.ones(len(h))]), b_ub=h,
                  bounds=[(None, None)] * 3, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.x


class TestMaximinLP:
    def assert_optimal(self, u, h):
        (o,), (t,), _, _ = _maximin_lp(u, [h])
        assert abs(t - _highs_maximin(u, h)[2]) <= 1e-9
        assert (h - u @ o - t).min() >= -1e-12

    @pytest.mark.parametrize("k2", [1.1, 5.0, 1000.0])
    @pytest.mark.parametrize("modes", [2, 8, 16])
    def test_random_bodies(self, k2, modes):
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
        for seed in range(6):
            body = random_pinched_curve(pinch, seed=seed, modes=modes)
            self.assert_optimal(_U_GRID, body.h(THETA_GRID))

    def test_flat_spindles(self):
        # rows come in exactly antipodal pairs: degenerate optima, o not unique
        for r_t in np.linspace(PINCH_12.r2, PINCH_12.r1, 7):
            body = spindle_support_curve(PINCH_12, float(r_t))
            self.assert_optimal(_U_GRID, body.h(THETA_GRID))

    def test_circles(self):
        for t in ([0.0, 0.0], [0.4, -0.15]):
            h = TrigSupportCurve(0.75).translate(t).h(THETA_GRID)
            self.assert_optimal(_U_GRID, h)
            (o,), (r,), _, _ = _maximin_lp(_U_GRID, [h])
            assert np.linalg.norm(o - t) <= 1e-12
            assert_allclose(r, 0.75, atol=1e-12)

    def test_grid_offset(self):
        thetas = THETA_GRID + 1e-3
        body = random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1.0, 5.0), seed=3)
        self.assert_optimal(unit_vectors(thetas), body.h(thetas))

    def test_scale_invariant(self):
        # the stopping tolerance follows the size of the data, not 1
        h = random_pinched_curve(PINCH_12, seed=5).h(THETA_GRID)
        (o,), (t,), _, _ = _maximin_lp(_U_GRID, [h])
        for lam in (1e-12, 1e12):
            (o_s,), (t_s,), _, _ = _maximin_lp(_U_GRID, [lam * h])
            assert abs(t_s / lam - t) <= 1e-12
            assert np.linalg.norm(o_s / lam - o) <= 1e-9

    def test_bland_rule(self, monkeypatch):
        # Bland's rule from the first pivot: slower, but the same optimum
        monkeypatch.setattr(flat, "_LP_BLAND_AFTER", 0)
        self.assert_optimal(_U_GRID, spindle_support_curve(PINCH_12, 0.75).h(THETA_GRID))
        body = random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1.0, 5.0), seed=4)
        self.assert_optimal(_U_GRID, body.h(THETA_GRID))

    def test_dense_grid(self):
        # a basis row's rounding residue just below -tol once let it enter
        # again, and the pivots cycled until the cap
        thetas = np.arange(2 ** 16) * (2.0 * math.pi / 2 ** 16)
        body = random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1.0, 5.0), seed=0)
        self.assert_optimal(unit_vectors(thetas), body.h(thetas))

    @pytest.mark.parametrize("size", [6, 64])
    def test_stack_matches_lone(self, size):
        # each body of a stack is solved alone: its (o, t, basis, lam) are
        # bit for bit those of the same data solved as a stack of one
        h = random_pinched_stack(PinchSpec.from_curvatures(FLAT, 1.0, 5.0),
                                 range(100, 100 + size)).grid[0]
        stacked = _maximin_lp(flat._U_GRID, h)
        for k in range(size):
            lone = _maximin_lp(flat._U_GRID, h[k:k + 1])
            for got, want in zip(stacked, lone):
                assert np.array_equal(got[k], want[0])

    def test_named_failures(self):
        h = np.ones(GRID)
        with pytest.raises(ValueError, match="non-finite"):
            _maximin_lp(_U_GRID, [np.where(np.arange(GRID) == 5, np.nan, h)])
        with pytest.raises(ValueError, match="singular start basis"):
            _maximin_lp(np.tile([1.0, 0.0], (GRID, 1)), [h])
        half = unit_vectors(np.linspace(0.0, 0.9 * math.pi, GRID))
        with pytest.raises(ValueError, match="positively span"):
            _maximin_lp(half, [h])


class TestInscribedBall:
    def test_circle(self):
        center, r = inscribed_ball(TrigSupportCurve(0.75))
        assert np.linalg.norm(center) <= 1e-9
        assert_allclose(r, 0.75, atol=1e-10)

    def test_translated_circle(self):
        t = np.array([0.4, -0.15])
        center, r = inscribed_ball(TrigSupportCurve(0.75).translate(t))
        assert np.linalg.norm(center - t) <= 1e-9
        assert_allclose(r, 0.75, atol=1e-10)

    def test_ball_skips_newton(self, monkeypatch):
        # a ball's support gap is flat: Newton would spin on f'' ~ 0 at every
        # grid minimum, so the polish must return before refining
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return refine(*args, **kwargs)

        refine = flat.refine_critical_points
        monkeypatch.setattr(flat, "refine_critical_points", counting)
        circle = TrigSupportCurve(0.75)
        for body in (circle, circle.translate([0.4, -0.15]), circle.translate([1e3, 2e3])):
            _, r = inscribed_ball(body)
            assert_allclose(r, 0.75, atol=1e-12)
        assert not calls

    def test_flat_spindle(self):
        body = spindle_support_curve(PINCH_12, 0.75)
        center, r = inscribed_ball(body)
        assert np.linalg.norm(center) <= 1e-7
        assert_allclose(r, 0.75, atol=1e-9)

    def test_random_bodies_interior_optimal(self):
        # moving the center in any direction may only shrink the minimum gap
        for seed in (1, 7, 23):
            body = random_pinched_curve(PINCH_12, seed=seed)
            center, r = inscribed_ball(body)
            from curvshell._flat import _support_gap_minima
            for ang in np.linspace(0, 2 * math.pi, 9, endpoint=False):
                off = center + 1e-5 * np.array([math.cos(ang), math.sin(ang)])
                assert _support_gap_minima(body.stack, off[None])[0] <= r + 1e-12

    def test_grid_values_read_the_shared_table(self, monkeypatch):
        # the grid values come from the shared trigonometric table; the jet
        # evaluates only off-grid points, never the whole grid
        body = random_pinched_curve(PINCH_12, seed=3)
        tables, jet_sizes = [], []
        table, jet = bodies._mode_table, TrigStack.jet

        def table_spy(n, count):
            tables.append((n, count))
            return table(n, count)

        def jet_spy(self, body, centers=None):
            at = jet(self, body, centers)
            return lambda t, sel=None: jet_sizes.append(np.size(t)) or at(t, sel)

        monkeypatch.setattr(bodies, "_mode_table", table_spy)
        monkeypatch.setattr(TrigStack, "jet", jet_spy)
        _inscribed_support(body.stack)
        assert tables and set(tables) == {(GRID, body.rho_cos.size)}
        assert jet_sizes and max(jet_sizes) < GRID

    def test_lone_body_work(self, monkeypatch):
        # a lone body's center on 30 bodies at the bench pinches: the LP forms
        # one basis inverse per basis it visits (and one to check the start),
        # and the contact Newton one jet evaluation per step; the certificate
        # takes one more for h at the contacts, and polishes no gap minimum on
        # a contact's branch again.  The code reads medians 4 and 15 (sums 134
        # and 447); the bounds leave room for a step more or less where the
        # stopping tests meet rounding in sin/cos or in summation order.  A
        # certificate that polished the contacts' branches again took a median
        # of 9 evaluations (sum 278), and a Newton that refined its contact
        # angles to convergence after every step a median of 23 (sum 669)
        jet, cofactors, jets, inverses = TrigStack.jet, flat._basis_cofactors, [], []

        def jet_spy(self, body, centers=None):
            at = jet(self, body, centers)
            return lambda t, sel=None: jets.append(1) or at(t, sel)

        monkeypatch.setattr(TrigStack, "jet", jet_spy)
        monkeypatch.setattr(flat, "_basis_cofactors",
                            lambda *a: inverses.append(1) or cofactors(*a))
        per_body = []
        for k2 in (1.1, 2.0, 5.0):
            pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
            for seed in range(10):
                stack = random_pinched_curve(pinch, seed=seed).stack
                jets.clear()
                inverses.clear()
                stack.inscribed()
                per_body.append((len(jets), len(inverses)))
        n_jets, n_inverses = np.array(per_body).T
        assert np.median(n_jets) <= 5 and n_jets.sum() <= 160
        assert np.median(n_inverses) <= 17 and n_inverses.sum() <= 500

    @pytest.mark.parametrize("lam", [1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e12])
    def test_scale_relative_polish(self, lam):
        # the polish's tolerances follow the size of the body: a scaled body
        # has the scaled center and radius on the ridge and triple paths alike
        tri = TrigSupportCurve(1.0, [0.0, 0.5], [0.0, 0.0]).translate([0.3, -0.1]).rotate(0.4)
        for body in (random_pinched_curve(PINCH_12, seed=0),
                     random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1.0, 5.0), seed=1),
                     tri):
            o, r = inscribed_ball(body)
            o_s, r_s = inscribed_ball(body.scale(lam))
            assert abs(r_s - lam * r) <= 1e-15 * lam * r
            assert np.linalg.norm(o_s - lam * o) <= 1e-15 * lam * r

    def test_restart_invariance(self):
        rng = rng_for(51)
        for seed in (3, 17):
            body = random_pinched_curve(PINCH_12, seed=seed)
            base_center, base_r = inscribed_ball(body)
            for _ in range(10):
                off = rng.uniform(0, 2 * math.pi / 2048)
                center, r = inscribed_ball(body.rotate(-off))  # the grid turned by off
                c, s = math.cos(off), math.sin(off)
                center = np.array([[c, -s], [s, c]]) @ center
                assert abs(r - base_r) <= 1e-9
                assert np.linalg.norm(center - base_center) <= 1e-9

    @staticmethod
    def assert_certified(body):
        (o,), (r,), (gap,) = _inscribed_support(body.stack)
        size = float(np.abs(body.h(THETA_GRID)).max())
        tol = 1e-12 * (size + float(np.linalg.norm(o)))
        assert -tol <= gap <= tol
        return o, r, gap

    @pytest.mark.parametrize("k2", [1.1, 2.0, 5.0])
    def test_certified_corpus(self, k2):
        # the bench pinches: ridge and triple bodies alike carry a gap of rounding size
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
        for seed in range(0, 1000, 25):
            self.assert_certified(random_pinched_curve(pinch, seed=seed))

    def test_certified_flat_spindles(self):
        for k1, k2 in [(1.0, 2.0), (0.5, 4.0)]:
            pinch = PinchSpec.from_curvatures(FLAT, k1, k2)
            for r_t in np.linspace(pinch.r2, pinch.r1, 33):
                _, r, _ = self.assert_certified(spindle_support_curve(pinch, float(r_t)))
                assert abs(r - r_t) <= 1e-15 * pinch.r1

    @pytest.mark.parametrize("modes", [2, 8, 16])
    def test_certified_wide_pinch(self, modes):
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, 1000.0)
        for seed in range(8):
            self.assert_certified(random_pinched_curve(pinch, seed=seed, modes=modes))

    @staticmethod
    def count_newton(monkeypatch):
        newton, calls = flat._contact_newton, []
        monkeypatch.setattr(flat, "_contact_newton",
                            lambda *a: calls.append(1) or newton(*a))
        return calls

    def test_ridge_with_a_third_contact(self, monkeypatch):
        # the LP's active set is an antipodal pair, but at the pair's ridge
        # point a third contact dips 6e-6 below.  The pair alone holds its
        # ridge value anywhere along the ridge, so one exchange round seeds
        # the third contact; the optimum is a triple whose third weight is
        # about 1e-4
        body = random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1.0, 5.0),
                                    seed=3587535972445630950)
        calls = self.count_newton(monkeypatch)
        o, r, _ = self.assert_certified(body)
        assert len(calls) == 2
        assert abs(r - 0.5432508906704727) <= 1e-15 * r
        assert np.ptp(np.sort(_support_gap_minima(body.stack, o[None])[3])[:3]) <= 1e-15 * r

    @pytest.mark.parametrize("k2, seed, r_want", [
        (2.0, 2696222693814979990, 0.7190112134773966),
        (5.0, 302160142256002, 0.5450048691785285),
    ])
    def test_exchange_rounds_of_bench_bodies(self, monkeypatch, k2, seed, r_want):
        # ridge bodies whose exchange LP stays degenerate along the ridge.
        # In the first, the LP's basis is the pair and a zero-weight row on
        # one of its branches, so only the least gap minimum, seeded after
        # the LP's active rows, brings in the third contact (weight 1.8e-4).
        # In the second, the contacts are gap minima too: each angle gives
        # one LP row, since twin rows in its ill-conditioned basis swapped
        # until the pivot cap
        body = random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1.0, k2), seed=seed)
        calls = self.count_newton(monkeypatch)
        _, r, _ = self.assert_certified(body)
        assert len(calls) == 2
        assert abs(r - r_want) <= 1e-15 * r

    def test_forced_exchange_round(self, monkeypatch):
        # a wrong first active set: the ridge pair without one contact, the
        # ridge's zero-weight row in place of a contact, the triple without
        # one.  The certificate fails, exchange rounds (one for the ridge,
        # two for the triple) find the contacts again, and the center and
        # radius do not move
        lp = flat._maximin_lp
        ridge = random_pinched_curve(PINCH_12, seed=0)
        tri = TrigSupportCurve(1.0, [0.0, 0.5], [0.0, 0.0]).translate([0.3, -0.1]).rotate(0.4)
        for body, wrong in ((ridge, "drop"), (ridge, "swap"), (tri, "drop")):
            (o0,), (r0,), _ = _inscribed_support(body.stack)

            def wrong_weights(u, h):
                o, t, rows, lam = lp(u, h)
                lam = lam.copy()
                w = lam[0]  # the one body's weights
                hi, lo = int(np.argmax(w)), int(np.argmin(w))
                w[hi], w[lo] = (0.0, w[lo]) if wrong == "drop" else (w[lo], w[hi])
                return o, t, rows, lam

            monkeypatch.setattr(flat, "_maximin_lp", wrong_weights)
            calls = self.count_newton(monkeypatch)
            o, r, _ = self.assert_certified(body)
            monkeypatch.undo()
            assert len(calls) >= 2
            assert abs(r - r0) <= 1e-15 * r0
            assert np.linalg.norm(o - o0) <= 1e-15 * r0

    def test_exchange_swaps_a_held_contact(self, monkeypatch):
        # the grid LP ends on an antipodal pair; a Newton from the pair and
        # the lowest gap minimum converges on a triple whose third contact,
        # on the wrong branch, carries weight 0.0025, and at its center the
        # right branch dips 4.4e-6 below.  So the exchange must drop a held
        # contact as well as add one: the LP over the grid rows and the exact
        # contact and minimum angles trades the wrong branch for the right
        # one.  The dense LP's own discretization error is 1.4e-10
        a = [0.013, -0.0065, 0.008, -0.0127, -0.0138, -0.0155, -0.0193, -0.007, -0.039,
             -0.0287, -0.022, -0.006, -0.023, -0.0033, 0.006, 0.0, 0.0, 0.01, -0.002, 0.01,
             -0.001, 0.0, -0.005, -0.01, -0.02, -0.028, 0.0, -0.02, 0.02, 0.02, 0.01]
        b = [-0.0258, 0.022, 0.0, 0.016, -0.0074, 0.007, -0.0021, 0.021, 0.009, 0.008, 0.009,
             0.0275, -0.0173, -0.006, -0.034, 0.0322, 0.0, 0.016, 0.026, -0.019, -0.0213,
             -0.0099, 0.038, -0.02, 0.01, -0.002, 0.016, -0.02, 0.005, 0.005, -0.023]
        body = TrigSupportCurve(0.7, a, b)
        calls = self.count_newton(monkeypatch)
        res = check_bounds(body, PINCH_12)
        assert len(calls) == 2  # the first round and one exchange round
        assert res.satisfied.all_ok
        self.assert_certified(body)
        thetas = np.arange(2 ** 17) * (2.0 * math.pi / 2 ** 17)
        o_x, o_y, t = _highs_maximin(unit_vectors(thetas), body.h(thetas))
        assert abs(res.inner_r - t) <= 1e-9 * PINCH_12.r1
        assert np.linalg.norm(res.center - [o_x, o_y]) <= 1e-9 * PINCH_12.r1

    class _RowsJet:
        """A stack of one whose jet gives the rows (h, h', rho) of rows(t) at any angles."""

        def __init__(self, rows):
            self.rows = rows

        def jet(self, body, centers=None):
            return lambda t, sel=None: np.array(self.rows(np.asarray(t, float)))

    @pytest.mark.parametrize("case", ["flat", "singular", "nan h", "inf slope"])
    def test_newton_failures_fail_the_body(self, case):
        # Python floats raise where numpy gave NaN: a contact without
        # curvature (rho equal to the gap f, here h at o = 0), a singular
        # step (no weight, so A = 0 and the ridge system has determinant 0)
        # or a non-finite contact fails the body's Newton, with no exception
        one = lambda t: np.ones(t.size)
        zero = lambda t: np.zeros(t.size)
        rows, lam = {
            "flat": (lambda t: [one(t), zero(t), one(t)], [0.5, 0.5]),
            "singular": (lambda t: [one(t), zero(t), 2.0 * one(t)], [0.0, 0.0]),
            "nan h": (lambda t: [np.where(t > 1.0, np.nan, 1.0), zero(t), 2.0 * one(t)],
                      [0.5, 0.5]),
            "inf slope": (lambda t: [one(t), np.full(t.size, np.inf), 2.0 * one(t)],
                          [0.5, 0.5]),
        }[case]
        stack = self._RowsJet(rows)
        assert flat._contact_newton(stack, 0, [0.0, math.pi], lam, (0.0, 0.0), 1.0, 1.0) is None

    def test_non_finite_contacts_name_the_seed(self, monkeypatch, capsys):
        # a rho of NaN at every contact fails each Newton, so the exchange
        # rounds run out: the body's error names its seed, with exit code 1
        jet = TrigStack.jet

        def nan_rho(self, body, centers=None):
            at = jet(self, body, centers)

            def rows(t, sel=None):
                out = at(t, sel)
                if centers is None:
                    out[2] = np.nan
                return out

            return rows

        monkeypatch.setattr(TrigStack, "jet", nan_rho)
        argv = ["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "3..3", "--jobs", "1"]
        assert cli.main(argv) == 1
        assert "seed 3: inscribed ball: certificate gap inf" in capsys.readouterr().err

    def test_uncertifiable_raises(self, monkeypatch, capsys):
        # no gap can pass a negative tolerance: the exchange rounds run out,
        # and the CLI reports the gap with exit code 1
        monkeypatch.setattr(flat, "_CERT_TOL", -1.0)
        with pytest.raises(ValueError, match="certificate gap .* exchange rounds"):
            inscribed_ball(random_pinched_curve(PINCH_12, seed=0))
        argv = ["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..0", "--jobs", "1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "certificate gap" in err
        assert "seed 0: inscribed ball: certificate gap" in err  # the failing seed is named

    def test_revolution_spindle(self):
        for space in (SPHERE, HYPER):
            p = random_pinch(space, rng_for(52))
            r_t = 0.5 * (p.r1 + p.r2)
            body = RevolutionBody.spindle(SpindleSpec(space, p, r_t))
            center, r = inscribed_ball(body)
            assert_allclose(r, r_t, atol=1e-9)
            assert float(np.linalg.norm(center - body.profile.symmetry_center)) <= 1e-6

    @pytest.mark.parametrize("space_idx,k1,k2", [(1, 1.0, 5.0), (2, 2.0, 9.0)])
    def test_revolution_thin_pinch(self, space_idx, k1, k2):
        # elongated spindles: the axis extends far beyond the body, so the
        # search bracket must stop at the axis apexes
        space = SPACES[space_idx]
        p = PinchSpec.from_curvatures(space, k1, k2)
        for frac in (1e-3, 0.25, 0.95):
            r_t = p.r2 + frac * (p.r1 - p.r2)
            body = RevolutionBody.spindle(SpindleSpec(space, p, r_t))
            _, r = inscribed_ball(body)
            assert_allclose(r, r_t, atol=1e-8)

    @pytest.mark.parametrize("space,k1,k2", [(SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_revolution_spindle_center_exact(self, space, k1, k2):
        # the main arcs' centers have their foot at the symmetry center
        p = PinchSpec.from_curvatures(space, k1, k2)
        for r_t in np.linspace(p.r2, p.r1, 33):
            s = SpindleSpec(space, p, float(r_t))
            body = RevolutionBody.spindle(s)
            center, r = inscribed_ball(body)
            assert np.array_equal(center, body.profile.symmetry_center)
            assert_allclose(r, spindle_radii(s)[0], rtol=0, atol=1e-15)
            assert circumscribed_from_center(body, center) - spindle_radii(s)[1] <= 1e-15

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("xc,rho", [(-1.0, 1.2), (-1.2, 1.25)])
    def test_revolution_crossing_contact(self, space, xc, rho):
        # A D-shaped meridian: the arc of radius r about the origin, closed on
        # the right by the arc of radius rho about the axis point xc < 0.  Both
        # centers lie on the axis, so the two distance branches r - |t| and
        # rho - (t - xc) cross at t* = (rho + xc - r) / 2, which is the center.
        # With (-1.2, 1.25) the body ends at t = 0.05 on the right while its
        # corners are r = 0.5 from the origin: axis points between 0.05 and
        # 0.5 lie outside the body, up to 0.45 from the profile.
        r = 0.5
        o = origin(space)
        _, e1, e2 = axis_point_frame(space, 0, 0.0)
        c, cu, cv = axis_point_frame(space, 0, xc)
        at_o = law_of_cosines_angle(space, r, -xc, rho)
        at_c = law_of_cosines_angle(space, rho, -xc, r)
        profile = ProfileCurve(space, (
            Arc(o, r, math.pi - at_o, math.pi + at_o, e1, e2, curvature_from_sphere_radius(space, r)),
            Arc(c, rho, -at_c, at_c, cu, cv, curvature_from_sphere_radius(space, rho)),
        ), o)
        center, got = inscribed_ball(RevolutionBody(profile))
        t_star = 0.5 * (rho + xc - r)
        assert_allclose(got, r + t_star, rtol=1e-14)
        assert_allclose(axis_foot(space, center), t_star, rtol=1e-12)
        assert abs(center[1]) <= 1e-15

    @pytest.mark.parametrize("shape", [(), (1.0, 0.4, -0.3, 0.55)])
    def test_revolution_crossing_between_samples(self, shape):
        # The D-shaped meridians above cross at the middle of their chord;
        # the cut lens crosses off it.
        profile, t_star, r_star = cut_lens_profile(*shape)
        center, got = inscribed_ball(RevolutionBody(profile))
        assert_allclose(got, r_star, rtol=1e-14)
        assert_allclose(center, [t_star, 0.0], rtol=0, atol=1e-14)

    def test_revolution_matches_dense_axis_scan(self):
        # An outer parallel body of eight disks, whose axis maximum is a
        # crossing of arc branches 0.066 from the nearest foot.
        x1, y1 = -0.045882201602143166, 0.5426068279855909
        x2, y2 = -0.5168879204197707, 0.5689120602029846
        x3, y3 = -0.38816900449742153, 0.2520286488422248
        centers = [(x1, y1), (x1, -y1), (x2, y2), (x2, -y2), (x3, y3), (x3, -y3),
                   (-0.10952241191778089, 0.0), (-0.8602105669864988, 0.0)]
        profile = disk_shell_profile(centers, 1.75, 0.25)
        center, r = inscribed_ball(RevolutionBody(profile))
        lo, hi = spindle._axis_chord(profile)
        scan = profile_extreme_dists(profile, axis_points(FLAT, np.linspace(lo, hi, 20001)))[0]
        assert r >= scan.max() - 1e-12 * 2.0
        assert profile_extreme_dists(profile, center)[0] == r
        # the plane's maximin (the flat support view) agrees: the body is
        # symmetric about the axis
        assert_allclose(inscribed_ball(ArcSupportCurve(profile))[1], r, rtol=0, atol=1e-12 * 2.0)

    def test_revolution_hemisphere_edge(self):
        # kappa1 = 0 on the sphere: the big circle is a great circle
        p = PinchSpec.from_curvatures(SPHERE, 0.0, 3.0)
        assert_allclose(p.r1, math.pi / 2, rtol=1e-15)
        r_t = 0.5 * (p.r1 + p.r2)
        body = RevolutionBody.spindle(SpindleSpec(SPHERE, p, r_t))
        _, r = inscribed_ball(body)
        assert_allclose(r, r_t, atol=1e-8)
        res = check_bounds(body, p)
        assert res.satisfied.width and res.satisfied.outer


class TestPolishes:
    """The grid polishes: which extrema the derivative bound sends to Newton, and when it stops."""

    @staticmethod
    def count_steps(monkeypatch):
        # per refine_critical_points call, the Newton steps taken short of its cap
        steps, refine = [], flat.refine_critical_points

        def counting(derivs, t0, halfwidth, iters=60, tol=1e-15):
            steps.append(-iters)

            def counted(t, sel):
                steps[-1] += 1
                return derivs(t, sel)

            return refine(counted, t0, halfwidth, iters, tol)

        monkeypatch.setattr(flat, "refine_critical_points", counting)
        monkeypatch.setattr(bodies, "refine_critical_points", counting)
        return steps

    def test_bench_bodies_stop_below_the_cap(self, monkeypatch):
        # a polished point freezes once its step stops shrinking, so no
        # polish dithers in rounding noise until the 60-step cap (about 1 in
        # 25 rho_range polishes did, over these bodies)
        steps = self.count_steps(monkeypatch)
        for k2 in (1.1, 2.0, 5.0):
            verify_batch(PinchSpec.from_curvatures(FLAT, 1.0, k2), seeds=range(300))
        assert steps and max(steps) < 0

    def test_fejer_body_stops_below_the_cap(self, monkeypatch):
        # the Fejér body's rho is flat on long stretches: its grid extrema
        # there are rounding noise, and none may run to the cap
        pinch = PINCH_12
        body = fejer_body(pinch, width_bound(FLAT, pinch).maximizer_r, 128)
        steps = self.count_steps(monkeypatch)
        res = check_bounds(body, pinch)
        assert res.satisfied.all_ok
        assert steps and max(steps) < 0

    @pytest.mark.parametrize("body", [
        TrigSupportCurve(1.0, [0.0, 0.0, 0.0, 0.01], [0.0] * 4),
        TrigSupportCurve(1.0, [0.0, 0.0, 0.0, 0.01], [0.0] * 4).translate([0.3, -0.2]),
        TrigSupportCurve(0.8, [0.0, 0.1], [0.0, 0.0]),
        TrigSupportCurve(1.0, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.02], [0.0] * 7),
    ], ids=["5-fold", "5-fold moved", "3-fold", "8-fold"])
    def test_tied_extrema_match_a_dense_scan(self, body):
        # exactly tied extrema sit on the 2^16 grid (at 0 or pi), so the
        # dense scan is exact there; every tied competitor is within the
        # derivative bound's reach of the grid extreme, so the bound keeps
        # them all, and rho_range and R match the scan
        n = 2 ** 16
        thetas = np.arange(n) * (2.0 * math.pi / n)
        lo, hi, _, _ = body.rho_range()
        rho = body.rho(thetas)
        r1 = float(rho.max())
        assert abs(lo - rho.min()) <= 1e-15 * r1
        assert abs(hi - rho.max()) <= 1e-15 * r1
        center, _ = inscribed_ball(body)
        big_r = circumscribed_from_center(body, center)
        dense = np.linalg.norm(body.boundary(thetas) - center, axis=1).max()
        assert abs(big_r - dense) <= 1e-15 * r1

    def test_far_extrema_are_not_polished(self, monkeypatch):
        # rho has six grid-local extrema, and only the least and the largest
        # can be reached between grid points; R has one maximum within reach
        body = TrigSupportCurve(1.0, [0.03, 0.02, 0.01], [0.01, -0.02, 0.005])
        points, refine = [], flat.refine_critical_points

        def counting(derivs, t0, *args, **kwargs):
            points.append(len(t0))
            return refine(derivs, t0, *args, **kwargs)

        monkeypatch.setattr(bodies, "refine_critical_points", counting)
        monkeypatch.setattr(flat, "refine_critical_points", counting)
        body.stack.rho_range()
        body.stack.outer_radius(np.zeros((1, 2)))
        assert points == [2, 1]


class TestCircumscribed:
    def test_circle(self):
        assert_allclose(circumscribed_from_center(TrigSupportCurve(0.75), [0.0, 0.0]),
                        0.75, atol=1e-12)

    def test_flat_spindle_apex(self):
        body = spindle_support_curve(PINCH_12, 0.75)
        assert_allclose(circumscribed_from_center(body, [0.0, 0.0]),
                        0.9330127018922193, atol=1e-10)

    def test_outside_center_raises(self):
        with pytest.raises(ValueError, match="interior"):
            circumscribed_from_center(TrigSupportCurve(0.75), [2.0, 0.0])

    def test_random_below_outer_bound(self):
        body = random_pinched_curve(PINCH_12, seed=42, modes=6)
        center, r = inscribed_ball(body)
        big_r = circumscribed_from_center(body, center)
        assert big_r <= outer_radius_bound(FLAT, PINCH_12, min(max(r, 0.5), 1.0)) + 1e-7

    @pytest.mark.parametrize("k2", [1.1, 2.0, 5.0])
    def test_matches_bounded_brent(self, k2):
        # reference: scipy's bounded Brent search on |b(t) - o|^2 within a
        # grid step of the largest grid value
        from scipy.optimize import minimize_scalar

        pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
        step = 2.0 * math.pi / GRID
        bodies = [random_pinched_curve(pinch, seed=s) for s in range(12)]
        bodies += [spindle_support_curve(pinch, r) for r in np.linspace(pinch.r2, pinch.r1, 5)]
        for body in bodies:
            center, _ = inscribed_ball(body)
            d2 = ((body.boundary(THETA_GRID) - center) ** 2).sum(axis=1)
            t0 = THETA_GRID[np.argmax(d2)]
            res = minimize_scalar(lambda t: -((body.boundary(t) - center) ** 2).sum(),
                                  bounds=(t0 - step, t0 + step), method="bounded",
                                  options={"xatol": 1e-13})
            want = math.sqrt(max(d2.max(), -res.fun))
            assert abs(circumscribed_from_center(body, center) - want) <= 1e-15

    def test_revolution(self):
        p = random_pinch(SPHERE, rng_for(53))
        r_t = 0.7 * p.r1 + 0.3 * p.r2
        body = RevolutionBody.spindle(SpindleSpec(SPHERE, p, r_t))
        got = circumscribed_from_center(body, body.profile.symmetry_center)
        assert_allclose(got, outer_radius_bound(SPHERE, p, r_t), atol=1e-9)

    @pytest.mark.parametrize("space,k1,k2", [(FLAT, 1.0, 2.0), (SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_exterior_center_of_an_arc_body_raises(self, space, k1, k2):
        # the interior test reads the signed distance to the boundary; an
        # unsigned one let exterior points through, with an R from outside
        p = PinchSpec.from_curvatures(space, k1, k2)
        r_t = p.r2 + 0.6 * (p.r1 - p.r2)
        body = RevolutionBody.spindle(SpindleSpec(space, p, r_t))
        profile, (r, big_r) = body.profile, spindle_radii(SpindleSpec(space, p, r_t))
        o = profile.symmetry_center
        _, e1, e2 = axis_point_frame(space, 0, 0.0)
        betas = np.linspace(0.0, 2.0 * math.pi, 13)
        # beyond the circumscribed ball about the center, and inside the inscribed one
        outside = np.array([circle_point(space, o, e1, e2, s * big_r, betas) for s in (1.01, 1.5)])
        inside = np.array([circle_point(space, o, e1, e2, s * r, betas) for s in (0.0, 0.5, 0.99)])
        lo = profile_extreme_dists(profile, outside)[0]
        assert np.array_equal(body.depth(outside), -lo)
        for pt in outside.reshape(-1, outside.shape[-1]):
            with pytest.raises(ValueError, match="interior"):
                circumscribed_from_center(body, pt)
        lo, hi = profile_extreme_dists(profile, inside)
        assert np.array_equal(body.depth(inside), lo) and (lo > 0.0).all()
        for pt, want in zip(inside.reshape(-1, inside.shape[-1]), hi.ravel()):
            # the closed form of the profile, bit for bit
            assert circumscribed_from_center(body, pt) == float(want)
        if space is FLAT:
            arc_body = ArcSupportCurve(profile)
            for pt in outside.reshape(-1, 2):
                with pytest.raises(ValueError, match="interior"):
                    circumscribed_from_center(arc_body, pt)

    def test_exterior_examples_raise(self):
        # a spherical spindle of R 0.728 answered 2.128 at this axis point,
        # and the flat spindle's revolution body 2.4 at (1.5, 0)
        p = PinchSpec.from_curvatures(SPHERE, 1.0, 2.0)
        curved = RevolutionBody.spindle(SpindleSpec(SPHERE, p, 0.6))
        flat_profile = spindle_support_curve(PINCH_12, 0.7).profile
        for body, pt in ((curved, axis_points(SPHERE, 1.4)),
                         (RevolutionBody(flat_profile), [1.5, 0.0]),
                         (ArcSupportCurve(flat_profile), [1.5, 0.0])):
            with pytest.raises(ValueError, match="interior"):
                circumscribed_from_center(body, pt)

    @pytest.mark.parametrize("shape", [(), (1.0, 0.4, -0.3, 0.55)])
    def test_depth_at_corners(self, shape):
        # the cut lens has three corners; its sides, from a convex polygon
        # of dense boundary samples, off a band of 1e-3 about the boundary
        profile = cut_lens_profile(*shape)[0]
        body = RevolutionBody(profile)
        poly, _ = sample_profile(profile, 4096)
        edge = np.roll(poly, -1, axis=0) - poly
        xs = np.linspace(-1.2, 1.2, 61)
        pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        lo = profile_extreme_dists(profile, pts)[0]
        pts, lo = pts[lo > 1e-3], lo[lo > 1e-3]
        rel = pts[:, None, :] - poly
        inside = (edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0] > 0.0).all(axis=1)
        assert inside.any() and not inside.all()
        assert np.array_equal(body.depth(pts), np.where(inside, lo, -lo))
        chord = spindle._axis_chord(profile)
        for t in (chord[0] - 0.05, chord[1] + 0.05):  # just past the corner and the cap
            with pytest.raises(ValueError, match="interior"):
                circumscribed_from_center(body, axis_points(FLAT, t))


class TestCheckBounds:
    def test_circle_trivial(self):
        res = check_bounds(TrigSupportCurve(0.75), PINCH_12)
        assert res.satisfied.all_ok
        assert res.width <= 1e-9
        assert_allclose(res.quotient, 1.0, atol=1e-8)

    def test_spindle_width_sharp(self):
        wb = width_bound(FLAT, PINCH_12)
        body = spindle_support_curve(PINCH_12, wb.maximizer_r)
        res = check_bounds(body, PINCH_12)
        assert res.satisfied.all_ok
        assert abs(res.width - wb.bound) <= 1e-6

    def test_spindle_at_a_wide_pinch_ratio(self):
        # the closed-form join angles keep the joins tangent at kappa2 / kappa1 = 1e8,
        # where the corner check of the arc body would refuse a normal-angle jump
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, 1e8)
        for r_t in np.linspace(pinch.r2, pinch.r1, 7)[1:-1]:
            assert check_bounds(spindle_support_curve(pinch, float(r_t)), pinch).satisfied.all_ok

    def test_spindle_quotient_sharp(self):
        body = spindle_support_curve(PINCH_12, quotient_maximizer(PINCH_12))
        res = check_bounds(body, PINCH_12)
        assert res.satisfied.all_ok
        assert abs(res.quotient - quotient_bound(PINCH_12).bound) <= 1e-6

    def test_random_batch_satisfied(self):
        recs = verify_batch(PINCH_12, seeds=range(40), modes=8)
        assert len(recs) == 40
        assert all(r["satisfied"]["width"] and r["satisfied"]["outer"]
                   and r["satisfied"]["quotient"] for r in recs)
        summary = summarize_worst_margins(recs)
        assert summary["all_satisfied"]
        assert summary["max_width"] <= width_bound(FLAT, PINCH_12).bound + 1e-7

    def test_one_gap_minima_scan(self, monkeypatch):
        # the certified center goes straight to the circumscribed scan: the
        # certificate scans the gap minima, the interior test does not again
        calls, scan = [], flat._support_gap_minima

        def counting(*args):
            calls.append(1)
            return scan(*args)

        monkeypatch.setattr(flat, "_support_gap_minima", counting)
        check_bounds(random_pinched_curve(PINCH_12, seed=0), PINCH_12)
        assert len(calls) == 1

    def test_one_stack_per_flat_check(self, monkeypatch):
        # a flat body's stack, and with it the 2048-direction grid, is built
        # once for the precondition, the center and the circumscribed radius
        body = random_pinched_curve(PINCH_12, seed=0)
        built, init = [], TrigStack.__init__

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(TrigStack, "__init__", counting)
        check_bounds(body, PINCH_12)
        assert len(built) == 1

    def test_scale_relative_slack(self, monkeypatch):
        # the slack of the flags and the range test on r follow r1: with R
        # tripled, the body scaled by 1e-9 violates its bounds as the unit one does
        circumscribed = flat._circumscribed
        monkeypatch.setattr(flat, "_circumscribed",
                            lambda stack, centers: 3.0 * circumscribed(stack, centers))
        for lam in (1.0, 1e-9):
            pinch = PinchSpec.from_curvatures(FLAT, 1.0 / lam, 2.0 / lam)
            res = check_bounds(random_pinched_curve(pinch, seed=0), pinch)
            assert not res.satisfied.width and not res.satisfied.outer, lam

    def test_non_finite_shell_raises(self, monkeypatch):
        # a failed solve must not read as a bound violation
        monkeypatch.setattr(flat, "_circumscribed",
                            lambda stack, centers: np.full(len(centers), math.inf))
        with pytest.raises(ValueError, match="non-finite"):
            check_bounds(random_pinched_curve(PINCH_12, seed=0), PINCH_12)

    def test_arc_body_outer_radius_is_closed_form(self):
        # an outer parallel body of seven disks, where the grid scan and its
        # polish read R 1.94e-7 r1 low, beyond the slack of the satisfied
        # flags; the profile gives R in closed form, as for its revolution body
        c = [(-0.073, 0.172), (-0.073, -0.172), (0.009, 0.26), (0.009, -0.26),
             (0.132, 0.322), (0.132, -0.322), (0.201, 0.0)]
        profile = disk_shell_profile(c, 0.8, 0.2)
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, 5.0)
        res = check_bounds(ArcSupportCurve(profile), pinch)
        assert res.outer_R == profile_extreme_dists(profile, res.center)[1]
        assert res.outer_R == check_bounds(RevolutionBody(profile), pinch).outer_R

    def test_revolution_corners_fail_the_precondition(self):
        # the cut lens has three corners; its arc radii alone are pinched in
        # (1, 5), but the curvature at a corner is unbounded
        profile = cut_lens_profile()[0]
        with pytest.raises(ValueError, match="corner from arc 0 to arc 1, where the normal "
                                             r"angle jumps by 0\.283794 rad"):
            check_bounds(RevolutionBody(profile), PinchSpec.from_curvatures(FLAT, 1.0, 5.0))

    @pytest.mark.parametrize("space,k1,k2", [(FLAT, 1.0, 2.0), (SPHERE, 1.0, 2.0),
                                             (HYPER, 2.0, 3.0)])
    def test_turned_arc_is_a_corner(self, space, k1, k2):
        # turning the spindle's first main arc along its circle breaks both of
        # its joins, in position and normal angle alike; the spindle passes
        pinch = PinchSpec.from_curvatures(space, k1, k2)
        profile = build_spindle(SpindleSpec(space, pinch, 0.5 * (pinch.r1 + pinch.r2)))
        assert check_bounds(RevolutionBody(profile), pinch).satisfied.all_ok
        for turn in (1e-8, -1e-6):
            arc = profile.segments[1]
            turned = dataclasses.replace(arc, theta_start=arc.theta_start + turn,
                                         theta_end=arc.theta_end + turn)
            segments = profile.segments[:1] + (turned,) + profile.segments[2:]
            body = RevolutionBody(dataclasses.replace(profile, segments=segments))
            with pytest.raises(ValueError, match="corner from arc 0 to arc 1"):
                check_bounds(body, pinch)
            assert body.inscribed()[1][0] > 0.0  # the body still answers its shell

    def test_pinch_violation_raises(self):
        body = random_pinched_curve(PINCH_12, seed=0)
        tighter = PinchSpec.from_curvatures(FLAT, 1.5, 2.0)
        with pytest.raises(ValueError, match="curvature"):
            check_bounds(body, tighter)

    def test_pinch_tolerance_follows_the_scale(self):
        # the precondition allows 1e-8 kappa2: at 1e-9 an absolute 1e-8
        # passed the tighter pinch, which then failed on the inscribed radius
        body = random_pinched_curve(PinchSpec.from_curvatures(FLAT, 1e-9, 2e-9), seed=0)
        with pytest.raises(ValueError, match="violates the curvature pinching"):
            check_bounds(body, PinchSpec.from_curvatures(FLAT, 1.5e-9, 2e-9))
        # at 1e9, 1 / r1 rounds one ulp (about 1.2e-7) below kappa1: exactly
        # pinched spindles pass
        for k1, k2 in [(1.0, 1.1), (1.0, 1.5), (1.0, 2.0), (1.0, 3.0), (1.0, 5.0), (2.0, 3.0),
                       (0.5, 4.0)]:
            pinch = PinchSpec.from_curvatures(FLAT, k1 * 1e9, k2 * 1e9)
            for r_t in np.linspace(pinch.r2, pinch.r1, 5):
                assert check_bounds(spindle_support_curve(pinch, float(r_t)), pinch).satisfied.all_ok

    def test_geometry_mismatch_raises(self):
        # a flat body is never checked against curved bounds, however close
        # the pinching's radii are to flat ones
        body = random_pinched_curve(PINCH_12, seed=0)
        near_flat = PinchSpec.from_curvatures(SpaceCurvature.spherical(1e-5), 1.0, 2.0)
        sphere_12 = PinchSpec.from_curvatures(SPHERE, 1.0, 2.0)
        spindle = RevolutionBody.spindle(SpindleSpec(SPHERE, sphere_12, 0.6))
        for check in (check_bounds, rolling_check):
            with pytest.raises(ValueError, match="flat space .* spherical space"):
                check(body, near_flat)
            with pytest.raises(ValueError, match="flat space .* spherical space"):
                check(body, sphere_12)
            with pytest.raises(ValueError, match="spherical space .* flat space"):
                check(spindle, PINCH_12)

    @pytest.mark.parametrize("space", SPACES[1:])
    def test_revolution_lemma_inequality(self, space):
        rng = rng_for(54)
        for _ in range(5):
            p = random_pinch(space, rng)
            r_t = rng.uniform(p.r2, p.r1)
            body = RevolutionBody.spindle(SpindleSpec(space, p, r_t))
            res = check_bounds(body, p)
            assert res.satisfied.width and res.satisfied.outer
            assert res.quotient_bound is None
            # sharp family: outer radius equals its bound
            assert abs(res.outer_R - res.outer_bound) <= 1e-7

    def test_equivariance(self):
        body = random_pinched_curve(PINCH_12, seed=9)
        base = check_bounds(body, PINCH_12)
        moved = check_bounds(body.translate([0.21, -0.34]).rotate(0.6), PINCH_12)
        assert abs(base.width - moved.width) <= 1e-12
        assert abs(base.quotient - moved.quotient) <= 1e-12

    def test_scaling_covariance(self):
        body = random_pinched_curve(PINCH_12, seed=10)
        base = check_bounds(body, PINCH_12)
        lam = 2.0
        scaled_pinch = PinchSpec.from_curvatures(FLAT, 1.0 / lam, 2.0 / lam)
        scaled = check_bounds(body.scale(lam), scaled_pinch)
        assert abs(scaled.width - lam * base.width) <= 1e-10
        assert abs(scaled.quotient - base.quotient) <= 1e-12


def _rolling_3d_norm(body, pinch, samples=100, probes=512, tol=1e-9):
    """The flat rolling test with the outer distances from np.linalg.norm
    over a (samples, probes, 2) array: the reference for the squared form."""
    th = np.arange(samples) * (2.0 * math.pi / samples)
    x, u = body.boundary(th), unit_vectors(th)
    c_in, c_out = x - pinch.r2 * u, x - pinch.r1 * u
    th_probe = np.arange(probes) * (2.0 * math.pi / probes)
    inner_gap = body.h(th_probe)[None, :] - c_in @ unit_vectors(th_probe).T
    if inner_gap.min() < pinch.r2 - tol:
        return False
    d_out = np.linalg.norm(body.boundary(th_probe)[None, :, :] - c_out[:, None, :], axis=2)
    return bool(d_out.max() <= pinch.r1 + tol)


def _unblocked_extremes(body, pinch, samples, probes):
    """(least support gap, largest squared distance) over one (samples, probes) array each."""
    th = np.arange(samples) * (2.0 * math.pi / samples)
    x, u = body.boundary(th), unit_vectors(th)
    c_in, c_out = x - pinch.r2 * u, x - pinch.r1 * u
    th_probe = np.arange(probes) * (2.0 * math.pi / probes)
    x_probe = body.boundary(th_probe)
    gap = body.h(th_probe)[None, :] - c_in @ unit_vectors(th_probe).T
    dx = x_probe[None, :, 0] - c_out[:, None, 0]
    dy = x_probe[None, :, 1] - c_out[:, None, 1]
    return float(gap.min()), float((dx * dx + dy * dy).max())


class TestRolling:
    @pytest.mark.parametrize("probes", [1, 7, 512, 4096])
    @pytest.mark.parametrize("samples", [1, 23, 24, 25, 100, 1000])
    def test_blocks_match_the_unblocked_check(self, samples, probes, monkeypatch):
        # blocks of 24 samples at 512 probes and of 3 at 4096; 23 samples fit
        # one block, 25 leave one row over.  Every sample is in a block of
        # at most 96 KiB per temporary and of two rows or more: a one-row
        # product rounds the spindle's least gap at 25 x 4096 differently.
        # The block extremes combine to the unblocked ones bit for bit, and
        # the verdicts are the norm test's
        rows, blocks, block_fn = [], [], verify._rolling_block

        def spy(h_probe, u_rows, px, py, c_in, c_out):
            rows.append(len(c_in))
            blocks.append(block_fn(h_probe, u_rows, px, py, c_in, c_out))
            return blocks[-1]

        monkeypatch.setattr(verify, "_rolling_block", spy)
        cases = [(PINCH_12, spindle_support_curve(PINCH_12, 0.8125))]
        for k2 in (1.1, 5.0):
            pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
            cases.append((pinch, random_pinched_curve(pinch, seed=int(10 * k2))))
        for pinch, body in cases:
            tighter = PinchSpec.from_curvatures(FLAT, pinch.kappa1 * 1.01, pinch.kappa2 / 1.01)
            for p in (pinch, tighter):
                rows.clear()
                blocks.clear()
                verdict = rolling_check(body, p, samples, probes)
                assert verdict is _rolling_3d_norm(body, p, samples, probes)
                gaps, d2s = np.array(blocks).T
                assert (gaps.min(), d2s.max()) == _unblocked_extremes(body, p, samples, probes)
                assert sum(rows) >= samples and min(rows) >= min(samples, 2)
                assert max(rows) * probes <= 12288

    @pytest.mark.parametrize("probes", [512, 4096])
    def test_traced_peak(self, probes):
        # the unblocked check traced 2028 KiB at the default grids (five
        # (100, 512) arrays); blocks keep every temporary under 96 KiB.  A
        # trigonometric body evaluates the 4096 probes, which are no shared
        # grid, in blocks of rows too: in one piece it traced 1607 KiB
        bodies = [spindle_support_curve(PINCH_12, 0.75), random_pinched_curve(PINCH_12, seed=3)]
        for body in bodies:
            rolling_check(body, PINCH_12, probes=probes)  # shared tables built
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert rolling_check(body, PINCH_12, probes=probes)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert peak < 640 * 1024, (type(body).__name__, peak)

    @pytest.mark.parametrize("name,kwargs", [
        ("samples", {"samples": 0}), ("samples", {"samples": -3}),
        ("probes", {"probes": 0}), ("probes", {"probes": -3}),
    ])
    def test_rejects_empty_grids(self, name, kwargs):
        flat = random_pinched_curve(PINCH_12, seed=0)
        p = PinchSpec.from_curvatures(SPHERE, 1.0, 2.0)
        curved = RevolutionBody.spindle(SpindleSpec(SPHERE, p, width_bound(SPHERE, p).maximizer_r))
        for body, pinch in ((flat, PINCH_12), (curved, p)):
            with pytest.raises(ValueError, match=f"{name} must be at least 1"):
                rolling_check(body, pinch, **kwargs)

    def test_squared_distances_match_the_norm(self):
        # the acceptance corpus's pinches and criterion 9's flat spindles, as
        # given, 1% tighter on both sides (every verdict flips) and 1% tighter
        # on the outer side only, where the outer test alone decides
        cases = [(PINCH_12, spindle_support_curve(PINCH_12, r_t))
                 for r_t in (PINCH_12.r2, 0.6, width_bound(FLAT, PINCH_12).maximizer_r, 0.9, PINCH_12.r1)]
        for k1, k2 in [(1.0, 1.1), (1.0, 2.0), (1.0, 5.0), (2.0, 3.0), (0.5, 4.0)]:
            pinch = PinchSpec.from_curvatures(FLAT, k1, k2)
            cases += [(pinch, random_pinched_curve(pinch, seed=s)) for s in range(0, 1000, 40)]
        outer_flips = 0
        for pinch, body in cases:
            tighter = PinchSpec.from_curvatures(FLAT, pinch.kappa1 * 1.01, pinch.kappa2 / 1.01)
            outer = PinchSpec.from_curvatures(FLAT, pinch.kappa1 * 1.01, pinch.kappa2)
            assert rolling_check(body, pinch) is _rolling_3d_norm(body, pinch) is True
            assert rolling_check(body, tighter) is _rolling_3d_norm(body, tighter) is False
            verdict = rolling_check(body, outer)
            assert verdict is _rolling_3d_norm(body, outer)
            outer_flips += not verdict
        assert outer_flips >= 50

    def test_scale_keeps_verdicts(self):
        # the tolerance follows r1: a scaled body and pinching keep the unit
        # verdicts, at scales where an absolute 1e-9 passes the tighter pinch
        # (1e-9) or fails the body's own (1e9)
        for lam in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
            pinch = PinchSpec.from_curvatures(FLAT, 1.0 / lam, 2.0 / lam)
            tighter = PinchSpec.from_curvatures(FLAT, 1.5 / lam, 2.0 / lam)
            body = random_pinched_curve(pinch, seed=0)
            assert rolling_check(body, pinch), lam
            assert not rolling_check(body, tighter), lam

    def test_circle(self):
        assert rolling_check(TrigSupportCurve(0.75), PINCH_12, samples=50)

    def test_flat_spindle(self):
        body = spindle_support_curve(PINCH_12, 0.75)
        assert rolling_check(body, PINCH_12, samples=100)

    def test_tighter_pinch_fails(self):
        body = spindle_support_curve(PINCH_12, 0.75)
        tighter = PinchSpec.from_curvatures(FLAT, 1.5, 2.0)
        assert not rolling_check(body, tighter, samples=100)

    def test_random_bodies(self):
        for seed in (0, 5, 12):
            body = random_pinched_curve(PINCH_12, seed=seed)
            assert rolling_check(body, PINCH_12, samples=60)

    @pytest.mark.parametrize("space", SPACES[1:])
    def test_revolution_spindles(self, space):
        p = random_pinch(space, rng_for(55))
        wb = width_bound(space, p)
        body = RevolutionBody.spindle(SpindleSpec(space, p, wb.maximizer_r))
        assert rolling_check(body, p, samples=100)
        # outer ball of an over-tightened pinch must fail
        tighter = PinchSpec.from_curvatures(space, p.kappa1 * 1.5 + space.k * 0.5, p.kappa2 * 2.0)
        assert not rolling_check(body, tighter, samples=100)


    @pytest.mark.parametrize("space,k1,k2", [(SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_revolution_spindles_fail_a_tighter_pinch(self, space, k1, k2):
        # 1% inside the band on both sides: the caps of radius r2 no longer
        # hold the inner ball, and the main arcs of radius r1 leave the outer one
        p = PinchSpec.from_curvatures(space, k1, k2)
        tighter = PinchSpec.from_curvatures(space, k1 * 1.01, k2 / 1.01)
        for r_t in np.linspace(p.r2, p.r1, 9):
            body = RevolutionBody.spindle(SpindleSpec(space, p, float(r_t)))
            assert rolling_check(body, p, samples=100)
            assert not rolling_check(body, tighter, samples=100)


class TestStacks:
    @staticmethod
    def records(pinch, seeds):
        stack = random_pinched_stack(pinch, seeds, 8)
        return [json.dumps(verify._record_from_result(res, seed, pinch))
                for res, seed in zip(verify._check_stack(stack, pinch), seeds)]

    @pytest.mark.parametrize("k2", [1.1, 2.0, 5.0])
    def test_records_independent_of_the_stack(self, k2):
        # a body's record is the same bytes alone, between two other bodies
        # and among eight
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, k2)
        seeds = list(range(100, 108))
        eight = self.records(pinch, seeds)
        for i, seed in enumerate(seeds):
            three = self.records(pinch, [1000 + i, seed, 2000 + i])[1]
            assert self.records(pinch, [seed])[0] == three == eight[i]

    def test_exchange_round_in_a_stack(self):
        # the ridge body whose third contact needs an exchange round runs it
        # alone, with the record it has in a stack of one
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, 5.0)
        ridge = 3587535972445630950
        assert self.records(pinch, [7, ridge, 8])[1] == self.records(pinch, [ridge])[0]

    def test_single_body_matches_the_stack(self):
        # check_bounds is a stack of one: its shell is the stack's
        pinch = PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
        seeds = [11, 12, 13]
        for seed, rec in zip(seeds, self.records(pinch, seeds)):
            res = check_bounds(random_pinched_curve(pinch, seed=seed), pinch)
            assert json.dumps(verify._record_from_result(res, seed, pinch)) == rec

    def test_check_bounds_runs_one_stack(self, monkeypatch):
        # every body type is checked as its stack of one, by one path
        stacks, check = [], verify._check_stack

        def counting(stack, pinch):
            stacks.append(len(stack))
            return check(stack, pinch)

        monkeypatch.setattr(verify, "_check_stack", counting)
        cases = [(random_pinched_curve(PINCH_12, seed=0), PINCH_12),
                 (spindle_support_curve(PINCH_12, 0.7), PINCH_12)]
        for space, k1, k2 in [(FLAT, 1.0, 2.0), (SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)]:
            p = PinchSpec.from_curvatures(space, k1, k2)
            cases.append((RevolutionBody.spindle(SpindleSpec(space, p, 0.5 * (p.r1 + p.r2))), p))
        for body, pinch in cases:
            stacks.clear()
            check_bounds(body, pinch)
            assert stacks == [1], type(body).__name__

    def test_stacks_hold_at_most_the_cap(self, monkeypatch):
        sizes, check = [], verify._check_stack

        def counting(stack, pinch):
            sizes.append(len(stack))
            return check(stack, pinch)

        monkeypatch.setattr(verify, "_check_stack", counting)
        recs = verify_batch(PINCH_12, seeds=range(200))
        assert [r["seed"] for r in recs] == list(range(200))
        assert sum(sizes) == 200 and max(sizes) <= verify.STACK_CAP


class TestBatchIO:
    def test_jsonl_and_summary(self, tmp_path):
        recs = verify_batch(PINCH_12, seeds=range(6), modes=6)
        path = tmp_path / "report.jsonl"
        write_jsonl(recs, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6
        import json

        rec = json.loads(lines[0])
        assert rec["seed"] == 0
        assert set(rec) >= {"seed", "kappa1", "kappa2", "r", "R", "width",
                            "quotient", "bounds", "satisfied", "margins"}

    def test_parallel_matches_serial(self):
        serial = verify_batch(PINCH_12, seeds=range(8), modes=6, jobs=1)
        parallel = verify_batch(PINCH_12, seeds=range(8), modes=6, jobs=2)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_pool_runs_one_worker_per_further_share(self, monkeypatch, tmp_path):
        # 130 seeds begin three stacks: jobs 2 splits them 65 + 65 and jobs 3
        # 44 + 43 + 43, the calling process checking the first share
        pools = []

        class Spy(verify.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.shares = []
                pools.append((max_workers, self.shares))

            def submit(self, fn, *args):
                self.shares.append(args[1])
                return super().submit(fn, *args)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", Spy)
        reports = []
        for jobs in (1, 2, 3):
            path = tmp_path / f"jobs{jobs}.jsonl"
            write_jsonl(verify_batch(PINCH_12, seeds=range(130), modes=6, jobs=jobs), path)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert pools == [(1, [list(range(65, 130))]),
                         (2, [list(range(44, 87)), list(range(87, 130))])]

    def test_small_batch_forks_no_worker(self, monkeypatch):
        # 6 seeds are less than half a stack per process: jobs 2 runs serially
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
        assert verify_batch(PINCH_12, seeds=range(6), modes=6, jobs=2) == \
            verify_batch(PINCH_12, seeds=range(6), modes=6, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("space,k1,k2", [(SPHERE, 1.0, 2.0), (HYPER, 2.0, 3.0)])
    def test_rejects_a_curved_pinching(self, space, k1, k2, jobs):
        # the random family is flat: a curved pinching is refused, not checked
        # against the flat bounds of its curvatures
        pinch = PinchSpec.from_curvatures(space, k1, k2)
        with pytest.raises(ValueError, match="flat-geometry bodies"):
            verify_batch(pinch, seeds=[0, 1], jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match=rf"jobs must be at least 1 \(got {jobs}\)"):
            verify_batch(PINCH_12, seeds=range(2), jobs=jobs)
