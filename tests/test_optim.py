import math

import numpy as np
import pytest

from curvshell._optim import bracketed_min, grid_extrema, refine_critical_points


class TestBracketedMin:
    def test_interior_minimum(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return (x - 0.3) ** 2

        x, fx = bracketed_min(f, 0.0, 3.0, xtol=1e-13)
        assert abs(x - 0.3) <= 1e-13
        assert fx == (x - 0.3) ** 2
        assert len(calls) <= 13  # 16-fold per round: 3 / 16^12 < 1e-13

    def test_minimum_at_an_end(self):
        assert bracketed_min(lambda x: x, 0.25, 2.0, xtol=1e-12) == (0.25, 0.25)
        assert bracketed_min(lambda x: -x, 0.25, 2.0, xtol=1e-12) == (2.0, -2.0)

    def test_flat_top_stops_at_resolution(self):
        # below ~1e-8 the samples of cos near pi are all -1: the bracket stops
        # shrinking at rounding instead of looping
        x, fx = bracketed_min(np.cos, 0.0, 2.0 * math.pi, xtol=0.0)
        assert fx == -1.0 and abs(x - math.pi) <= 1e-7

    def test_kinked_minimum_at_zero(self):
        # a crossing at t = 0 with the axis search's stop of a few ulps of the
        # bracket's ends: about 14 rounds, where xtol = 0 shrinks the bracket
        # to subnormals
        calls = []

        def f(x):
            calls.append(x.size)
            return np.abs(x)

        a, b = -0.9, 1.3
        xtol = 8.0 * float(np.finfo(float).eps) * max(abs(a), abs(b))
        x, fx = bracketed_min(f, a, b, xtol=xtol)
        assert abs(x) <= xtol and fx == abs(x)
        assert len(calls) <= 15

    def test_empty_bracket(self):
        with pytest.raises(ValueError):
            bracketed_min(np.cos, 1.0, 0.0, xtol=1e-12)


class TestRefineCriticalPoints:
    @staticmethod
    def derivs(freq):
        # f = (1 - cos(k t)) / k^2 per point, each with its own frequency k
        def d(t, sel):
            k = freq[sel]
            return np.sin(k * t) / k, np.cos(k * t)
        return d

    def test_points_do_not_depend_on_each_other(self):
        # each point freezes on its own step: alone, or among points that
        # converge later, it ends on the same bits.  With a loose tol a
        # point that kept stepping after its own convergence would move on
        freq = np.array([1.0, 3.0, 7.0, 0.5, 2.0, 11.0])
        t0 = np.array([0.3, 0.2, 0.1, 0.4, -0.4, 0.12])
        together = refine_critical_points(self.derivs(freq), t0, 0.5, tol=1e-6)
        assert np.abs(np.sin(freq * together)).max() <= 1e-9
        for i in range(t0.size):
            alone = refine_critical_points(self.derivs(freq[i:i + 1]), t0[i:i + 1], 0.5, tol=1e-6)
            assert alone[0] == together[i]
        mixed = [4, 0, 5]
        picked = refine_critical_points(self.derivs(freq[mixed]), t0[mixed], 0.5, tol=1e-6)
        assert np.array_equal(picked, together[mixed])

    def test_dithering_point_freezes(self):
        # a slope of rounding size, 1e-14 of alternating sign, never gives a
        # step below tol: the points freeze once their steps stop shrinking,
        # after two steps, not at the cap
        calls = []

        def noisy(t, sel):
            calls.append(1)
            return np.full(t.size, 1e-14 * (-1.0) ** len(calls)), np.ones(t.size)

        t = refine_critical_points(noisy, np.array([0.5, 1.5]), 0.1)
        assert len(calls) == 2
        assert np.abs(t - [0.5, 1.5]).max() <= 1e-13


class TestGridExtrema:
    def test_thresholds_pick_the_extrema(self):
        # cos 4t has four tied maxima and minima on the grid, cos t one of each
        thetas = np.arange(64) * (2.0 * math.pi / 64)
        values = np.stack([np.cos(4.0 * thetas), np.cos(thetas)])
        low, high = values.min(axis=1) + 1e-9, values.max(axis=1) - 1e-9

        def pairs(row, j):
            return sorted(zip(row.tolist(), j.tolist()))

        none = np.full(2, np.inf)
        minima = [(0, 8), (0, 24), (0, 40), (0, 56), (1, 32)]
        maxima = [(0, 0), (0, 16), (0, 32), (0, 48), (1, 0)]
        assert pairs(*grid_extrema(values, low, none)) == minima
        assert pairs(*grid_extrema(values, -none, high)) == maxima
        assert pairs(*grid_extrema(values, low, high)) == sorted(minima + maxima)
        # a threshold below a row's least value leaves it out
        assert pairs(*grid_extrema(values, np.array([-2.0, 2.0]), none)) == [(1, 32)]
