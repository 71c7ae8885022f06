"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Criterion 5 builds the full random-body corpus once (session
fixture); criterion 9 reuses those bodies for the rolling checks.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from curvshell.bodies import (
    RevolutionBody,
    random_pinched_curve,
    random_pinched_stack,
    spindle_support_curve,
)
from curvshell.bounds import (
    outer_radius_bound,
    quotient_bound,
    quotient_bound_coarse,
    quotient_maximizer,
    quotient_profile,
    stability_quotient_constant,
    stability_width_constant,
    width_bound,
    width_profile,
)
from curvshell.geometry import PinchSpec, SpaceCurvature
from curvshell.spindle import SpindleSpec, build_spindle, numeric_radii
from curvshell.verify import STACK_CAP, _check_stack, check_bounds, rolling_check

from conftest import FLAT, HYPER, SPHERE, rng_for

SQRT2 = math.sqrt(2.0)
GEOMETRIES = {"flat": FLAT, "spherical": SPHERE, "hyperbolic": HYPER}

# mpmath (50 digits) evaluations of the curved closed forms
SPH_WIDTH_12 = 0.1352805183149575
HYP_WIDTH_23 = 0.0834878258962939

CORPUS_PINCHES = [(1.0, 1.1), (1.0, 2.0), (1.0, 5.0), (2.0, 3.0), (0.5, 4.0)]
CORPUS_SEEDS = range(1000)


@contextmanager
def criterion(num, name, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num} {name}: PASS [{elapsed:.3f}s]")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.3f}s)"


def random_pinch_for(space, rng):
    if space.kind == "hyperbolic":
        kappa1 = space.k * (1.0 + 10.0 ** rng.uniform(-1.2, 0.4))
    else:
        kappa1 = 10.0 ** rng.uniform(-0.4, 0.5)
    ratio = 1.0 + 10.0 ** rng.uniform(-1.7, 0.55)
    return PinchSpec.from_curvatures(space, kappa1, kappa1 * ratio)


@pytest.fixture(scope="session")
def corpus():
    """All random bodies and shell results of the no-counterexample suite.

    The bodies are checked as stacks of at most STACK_CAP, as `verify`
    checks them.  Every 50th seed also goes through `random_pinched_curve`
    and `check_bounds`, whose shell must equal the stack's bit for bit, so
    the single-body path stays covered.  Returns (batches, build_seconds);
    the build time belongs to the criterion-5 runtime budget.
    """
    t0 = time.perf_counter()
    out = {}
    seeds = list(CORPUS_SEEDS)
    for k1, k2 in CORPUS_PINCHES:
        pinch = PinchSpec.from_curvatures(FLAT, k1, k2)
        bodies, results = [], []
        for lo in range(0, len(seeds), STACK_CAP):
            stack = random_pinched_stack(pinch, seeds[lo:lo + STACK_CAP], modes=8)
            bodies += [stack.body(k) for k in range(len(stack))]
            results += _check_stack(stack, pinch)
        for i in range(0, len(seeds), 50):
            single = check_bounds(random_pinched_curve(pinch, seed=seeds[i], modes=8), pinch)
            assert_same_shell(single, results[i])
        out[(k1, k2)] = (pinch, bodies, results)
    return out, time.perf_counter() - t0


def assert_same_shell(a, b):
    assert a.center.tobytes() == b.center.tobytes()
    assert (a.inner_r, a.outer_R) == (b.inner_r, b.outer_R)
    assert a.margins == b.margins


def test_criterion_1_flat_formula_reproduction():
    pinch = PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
    width_bound(FLAT, pinch)  # warm up
    with criterion(1, "flat formula reproduction"):
        t0 = time.perf_counter()
        wb = width_bound(FLAT, pinch).bound
        qb = quotient_bound(pinch).bound
        r0 = quotient_maximizer(pinch)
        q_at = quotient_profile(pinch, 0.6)
        elapsed = time.perf_counter() - t0
        assert abs(wb - (SQRT2 - 1.0) / 2.0) <= 1e-12
        assert abs(qb - 4.0 / 3.0) <= 1e-12
        assert abs(r0 - 0.6) <= 1e-12
        assert abs(q_at - 4.0 / 3.0) <= 1e-12
        assert elapsed < 1e-3, f"formula evaluation took {elapsed * 1e3:.3f} ms"


def test_criterion_2_curved_formula_reproduction():
    cases = [
        (SPHERE, 1.0, 2.0, SPH_WIDTH_12),
        (HYPER, 2.0, 3.0, HYP_WIDTH_23),
    ]
    for space, k1, k2, _ in cases:  # warm up
        width_bound(space, PinchSpec.from_curvatures(space, k1, k2))
    with criterion(2, "curved formula reproduction"):
        t0 = time.perf_counter()
        for space, k1, k2, frozen in cases:
            pinch = PinchSpec.from_curvatures(space, k1, k2)
            closed = width_bound(space, pinch).bound
            # independent maximization oracle (bounded Brent on the profile)
            res = minimize_scalar(lambda r: -width_profile(space, pinch, r),
                                  bounds=(pinch.r2, pinch.r1), method="bounded",
                                  options={"xatol": 1e-12})
            assert abs(closed - (-res.fun)) <= 1e-8
            assert abs(closed - frozen) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-2, f"curved bound evaluation took {elapsed * 1e3:.2f} ms"


GEOMETRY_SEEDS = {"flat": 101, "spherical": 102, "hyperbolic": 103}


def test_criterion_3_sharpness():
    with criterion(3, "spindle sharpness", limit=30.0):
        for name, space in GEOMETRIES.items():
            rng = rng_for(GEOMETRY_SEEDS[name])
            for _ in range(50):
                pinch = random_pinch_for(space, rng)
                wb = width_bound(space, pinch)
                prof = build_spindle(SpindleSpec(space, pinch, wb.maximizer_r))
                lo, hi = numeric_radii(prof, 2048)
                assert abs((hi - lo) - wb.bound) <= 1e-6
        rng = rng_for(77)
        for _ in range(50):
            pinch = random_pinch_for(FLAT, rng)
            qb = quotient_bound(pinch)
            prof = build_spindle(SpindleSpec(FLAT, pinch, quotient_maximizer(pinch)))
            lo, hi = numeric_radii(prof, 2048)
            assert abs(hi / lo - qb.bound) <= 1e-8 * qb.bound


def test_criterion_4_outer_radius_equality_family():
    with criterion(4, "outer-radius equality family", limit=30.0):
        for name, space in GEOMETRIES.items():
            pinch = PinchSpec.from_curvatures(
                space, *( (2.0, 3.0) if name == "hyperbolic" else (1.0, 2.0) ))
            for r_tilde in np.linspace(pinch.r2, pinch.r1, 33):
                prof = build_spindle(SpindleSpec(space, pinch, float(r_tilde)))
                _, hi = numeric_radii(prof, 2048)
                assert abs(hi - outer_radius_bound(space, pinch, float(r_tilde))) <= 1e-8


def test_criterion_5_no_counterexamples(corpus):
    batches, build_seconds = corpus
    with criterion(5, "no-counterexample suite"):
        t0 = time.perf_counter()
        for (k1, k2), (pinch, _, results) in batches.items():
            for res in results:
                assert res.satisfied.width, (k1, k2)
                assert res.satisfied.outer, (k1, k2)
                assert res.satisfied.quotient, (k1, k2)
        widths_12 = [r.width for r in batches[(1.0, 2.0)][2]]
        assert max(widths_12) <= 0.2071068
        assert max(widths_12) >= 0.15
        total = build_seconds + (time.perf_counter() - t0)
        print(f"  (corpus build + checks: {total:.1f}s)", end="")
        assert total < 300.0


def test_criterion_6_stability():
    with criterion(6, "almost-umbilical stability", limit=1.0):
        for kappa in (0.5, 1.0, 2.0):
            spaces = (SpaceCurvature.hyperbolic(kappa / SQRT2), FLAT, SpaceCurvature.spherical(1.0))
            for space in spaces:
                c_const = stability_width_constant(kappa, space)
                for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                    pinch = PinchSpec.from_curvatures(space, kappa, (1 + eps) * kappa)
                    wb = width_bound(space, pinch).bound
                    assert wb < c_const * eps
                    ratio = wb / (c_const * eps)
                    assert 1.0 - 10.0 * eps <= ratio < 1.0
        c_q = stability_quotient_constant()
        for kappa in (0.5, 1.0, 2.0):
            for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                pinch = PinchSpec.from_curvatures(FLAT, kappa, (1 + eps) * kappa)
                excess = quotient_bound(pinch).bound - 1.0
                assert excess < c_q * eps
                ratio = excess / (c_q * eps)
                assert 1.0 - 10.0 * eps <= ratio < 1.0


def test_criterion_7_limits():
    with criterion(7, "flat limits and degenerate pinch limits"):
        k = 1e-4
        for k1, k2 in [(1.0, 2.0), (2.0, 3.0), (0.5, 4.0), (1.0, 1.1)]:
            flat_val = width_bound(FLAT, PinchSpec.from_curvatures(FLAT, k1, k2)).bound
            for space in (SpaceCurvature.spherical(k), SpaceCurvature.hyperbolic(k)):
                val = width_bound(space, PinchSpec.from_curvatures(space, k1, k2)).bound
                assert abs(val - flat_val) / flat_val <= 1e-7
        # bounds vanish linearly as kappa2 -> kappa1
        for space in GEOMETRIES.values():
            kappa1 = space.k + 1.0
            slopes = []
            for delta in (1e-3, 1e-5, 1e-7):
                pinch = PinchSpec.from_curvatures(space, kappa1, kappa1 + delta)
                wb = width_bound(space, pinch).bound
                assert wb < 1e-2
                slopes.append(wb / delta)
            assert abs(slopes[-1] / slopes[-2] - 1.0) <= 1e-2
            assert abs(slopes[-2] / slopes[0] - 1.0) <= 1e-2
        slopes = []
        for delta in (1e-3, 1e-5, 1e-7):
            pinch = PinchSpec.from_curvatures(FLAT, 1.0, 1.0 + delta)
            slopes.append((quotient_bound(pinch).bound - 1.0) / delta)
        assert abs(slopes[-1] / slopes[0] - 1.0) <= 1e-2


def test_criterion_8_coarse_quotient_ordering():
    with criterion(8, "coarse quotient bound dominates"):
        kappa1s = np.linspace(0.2, 5.0, 100)
        ratios = np.linspace(1.0, 8.0, 100)
        for k1 in kappa1s:
            for t in ratios:
                pinch = PinchSpec.from_curvatures(FLAT, float(k1), float(k1 * t))
                sharp = quotient_bound(pinch).bound
                coarse = quotient_bound_coarse(pinch)
                assert sharp <= coarse + 1e-12
                if t == 1.0:
                    assert abs(sharp - coarse) <= 1e-12
                else:
                    assert sharp < coarse - 1e-12 * coarse


def test_criterion_9_rolling_checks(corpus):
    batches, _ = corpus
    with criterion(9, "rolling checks"):
        pinch_12 = PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
        wb = width_bound(FLAT, pinch_12)
        flat_rs = [pinch_12.r2, 0.6, wb.maximizer_r, 0.9, pinch_12.r1]
        for r_tilde in flat_rs:
            assert rolling_check(spindle_support_curve(pinch_12, r_tilde), pinch_12, samples=100)
        for name, space in (("spherical", SPHERE), ("hyperbolic", HYPER)):
            pinch = PinchSpec.from_curvatures(
                space, *( (2.0, 3.0) if name == "hyperbolic" else (1.0, 2.0) ))
            wbc = width_bound(space, pinch)
            for r_tilde in (pinch.r2, wbc.maximizer_r, 0.5 * (pinch.r1 + pinch.r2), pinch.r1):
                body = RevolutionBody.spindle(SpindleSpec(space, pinch, float(r_tilde)))
                assert rolling_check(body, pinch, samples=100)
        for (k1, k2), (pinch, bodies, _) in batches.items():
            for body in bodies:
                assert rolling_check(body, pinch, samples=100), (k1, k2)
