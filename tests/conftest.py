import math

import numpy as np
import pytest

from curvshell.geometry import PinchSpec, SpaceCurvature, axis_point_frame
from curvshell.spindle import Arc, ProfileCurve

FLAT = SpaceCurvature.flat()
SPHERE = SpaceCurvature.spherical(1.0)
HYPER = SpaceCurvature.hyperbolic(1.0)
SPACES = [FLAT, SPHERE, HYPER]


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_pinch(space, rng, max_log_ratio=0.6):
    """Random admissible pinching with kappa2/kappa1 up to ~10**max_log_ratio."""
    if space.kind == "hyperbolic":
        kappa1 = space.k * (1.0 + 10.0 ** rng.uniform(-1.5, 0.5))
    else:
        kappa1 = 10.0 ** rng.uniform(-0.5, 0.7)
    ratio = 1.0 + 10.0 ** rng.uniform(-2.0, max_log_ratio)
    return PinchSpec.from_curvatures(space, kappa1, kappa1 * ratio)


@pytest.fixture
def rng():
    return rng_for(20240817)


def cut_lens_profile(big_r=1.0, a=0.5, xc=-0.2, rho=0.5):
    """Flat lens cut short by a cap, whose inscribed center is a crossing.

    The upper and lower arcs of radius big_r about (0, -+a) meet at a corner
    on the axis at -L; an arc of radius rho about the axis point (xc, 0)
    cuts off their right tip, ending the body at e = xc + rho.  The ball
    about the arcs' foot t = 0 would poke out past e, so the largest ball on
    the axis sits where the branches big_r - sqrt(t^2 + a^2) and e - t
    cross, at t* = (a^2 - (big_r - e)^2) / (2 (big_r - e)), off the middle
    of the chord [-L, e].  Returns (profile, t*, e - t*).
    """
    e = xc + rho
    t_star = (a * a - (big_r - e) ** 2) / (2.0 * (big_r - e))
    # upper-right corner: seen from the upper arc's center (0, -a) and from the cap's
    mc = math.hypot(xc, a)
    theta_p = math.atan2(a, xc) - math.acos((big_r ** 2 + mc ** 2 - rho ** 2) / (2.0 * big_r * mc))
    px, py = big_r * math.cos(theta_p), big_r * math.sin(theta_p) - a
    phi = math.atan2(py, px - xc)
    tip = math.pi - math.asin(a / big_r)  # the left corner, seen from (0, -a)
    space = SpaceCurvature.flat()
    _, u, v = axis_point_frame(space, 0, 0.0)
    arcs = (
        Arc(axis_point_frame(space, 0, xc)[0], rho, -phi, phi, u, v, 1.0 / rho),
        Arc(axis_point_frame(space, 1, -a)[0], big_r, theta_p, tip, u, v, 1.0 / big_r),
        Arc(axis_point_frame(space, 1, a)[0], big_r, 2.0 * math.pi - tip,
            2.0 * math.pi - theta_p, u, v, 1.0 / big_r),
    )
    return ProfileCurve(space, arcs, axis_point_frame(space, 0, 0.0)[0]), t_star, e - t_star
