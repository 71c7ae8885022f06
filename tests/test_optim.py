import math

import numpy as np
import pytest

from curvshell._optim import bracketed_min, refine_critical_points


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
