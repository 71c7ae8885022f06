import math

import numpy as np
import pytest

from curvshell.bodies import GRID_N, THETA_GRID, ArcSupportCurve, TrigSupportCurve, unit_vectors
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


def disk_shell_profile(centers, rho, r2):
    """Flat outer parallel body, at distance r2, of an intersection of disks of radius rho.

    The intersection K is bounded by arcs of the disk circles between
    vertices.  At distance r2 each such arc becomes a kappa1 arc of radius
    r1 = rho + r2 about its disk center, over the same polar angles, and
    each vertex a kappa2 cap of radius r2 about it, turning from the
    normal of the arc before to the normal of the arc after.  The origin
    must lie inside every disk; it is the profile's symmetry center.
    """
    c = np.asarray(centers, float)
    verts = []  # (vertex, disk of the boundary arc leaving it counterclockwise)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            d = c[j] - c[i]
            half = 0.5 * float(np.linalg.norm(d))
            if not 0.0 < half < rho:
                continue
            off = math.sqrt(rho * rho - half * half) / (2.0 * half) * np.array([-d[1], d[0]])
            others = np.delete(c, [i, j], axis=0)
            for p in (0.5 * (c[i] + c[j]) + off, 0.5 * (c[i] + c[j]) - off):
                if (np.linalg.norm(others - p, axis=1) > rho).any():
                    continue
                # circle i, run counterclockwise from p, enters disk j or leaves it
                w = p - c[i]
                leaving = i if (c[j] - p) @ np.array([-w[1], w[0]]) > 0.0 else j
                verts.append((p, leaving))
    verts.sort(key=lambda pv: math.atan2(pv[0][1], pv[0][0]))

    def angle(p, q):
        return math.atan2(p[1] - q[1], p[0] - q[0])

    space = SpaceCurvature.flat()
    _, u, v = axis_point_frame(space, 0, 0.0)
    r1 = rho + r2
    arcs = []
    for (p, k), (q, k_next) in zip(verts, verts[1:] + verts[:1]):
        a0 = angle(p, c[k])
        a1 = a0 + (angle(q, c[k]) - a0) % (2.0 * math.pi)
        b1 = a1 + (angle(q, c[k_next]) - a1) % (2.0 * math.pi)
        arcs += [Arc(c[k], r1, a0, a1, u, v, 1.0 / r1), Arc(q, r2, a1, b1, u, v, 1.0 / r2)]
    return ProfileCurve(space, tuple(arcs), np.zeros(2))


def closure_residual(body) -> float:
    """Max |integral of rho (cos, sin)| over the period; 0 for closed curves.

    An arc body's integral is closed-form: r (sin b - sin a, cos a - cos b)
    per arc over its normal angles [a, b] (polar angles plus the angle of
    frame_u).  A trigonometric body takes the rectangle rule on the support
    grid, which is exact for its modes.
    """
    if isinstance(body, ArcSupportCurve):
        mom = np.zeros(2)
        for arc in body.profile.segments:
            a = arc.theta_start + math.atan2(arc.frame_u[1], arc.frame_u[0])
            b = a + arc.span
            mom += arc.radius * np.array([math.sin(b) - math.sin(a), math.cos(a) - math.cos(b)])
    else:
        vals = np.asarray(body.rho(THETA_GRID))
        mom = (vals[:, None] * unit_vectors(THETA_GRID)).sum(axis=0) * (2.0 * math.pi / GRID_N)
    return float(np.abs(mom).max())


def fejer_body(pinch, r_tilde, modes):
    """The Fejér mean of order modes of the flat spindle's curvature radius, as a trig body.

    The spindle of inscribed radius r_tilde has rho = r2 on its caps'
    normal angles |t| < phi and |t - pi| < phi, phi = atan2(r1 - r_tilde,
    R - r2) its join angle, and r1 elsewhere.  Mode n of that step
    function, times the Fejér weight 1 - n / (modes + 1), is a cosine
    term; the kernel is positive, so rho stays inside [r2, r1], and the
    first harmonics stay 0, so the curve closes.
    """
    r1, r2 = pinch.r1, pinch.r2
    big_r = r2 + math.sqrt((r1 - r2) ** 2 - (r1 - r_tilde) ** 2)
    phi = math.atan2(r1 - r_tilde, big_r - r2)
    ns = np.arange(2.0, modes + 1)
    a = -(r1 - r2) * 2.0 * np.sin(ns * phi) / (math.pi * ns) * (1.0 + (-1.0) ** ns)
    return TrigSupportCurve(r1 - (r1 - r2) * 2.0 * phi / math.pi, a * (1.0 - ns / (modes + 1)),
                            np.zeros(ns.size))
