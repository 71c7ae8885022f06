"""Extremal rounded spindle profiles and their radii.

A rounded spindle is the meridian of the surface of revolution that
attains the shell bounds: two arcs of geodesic curvature kappa1 (the
"main" arcs) closed off by two caps of geodesic curvature kappa2 whose
centers sit on the rotation axis, joined with matching tangents.  The
profile is kept as an exact list of constant-curvature arcs; samples
for export are derived from it.

The construction is driven by one parameter, the inscribed radius
r_tilde in [r2, r1].  The cap-center offset d comes from the right
geodesic triangle with legs (r1 - r_tilde) and d and hypotenuse
(r1 - r2); its hypotenuse relation is exactly the outer-radius bound,
so the built profile attains that bound by construction.  The join
angles are that triangle's angles at the main and cap centers, taken in
closed form, so each join is tangent to the last bits at any
kappa2 / kappa1.  Any arc profile also gives here, in closed form, the
distances from points to it (its radii about the symmetry center among
them) and the shell of its body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import bracketed_min
from .bounds import outer_radius_bound
from .geometry import (
    SPHERICAL,
    PinchSpec,
    SpaceCurvature,
    angle_in_frame,
    axis_foot,
    axis_point_frame,
    axis_points,
    circle_circumference_factor,
    circle_point,
    circle_tangent,
    distance,
    law_of_cosines_side,
    origin,
    space_mismatch,
    tangent_inner,
)

_END_SNAP = 1e-12  # r_tilde within this (relative) of an endpoint collapses to a circle


@dataclass(frozen=True)
class SpindleSpec:
    """Parameters of one rounded spindle: space, pinching, inscribed radius."""

    space: SpaceCurvature
    pinch: PinchSpec
    r_tilde: float

    def __post_init__(self):
        if self.space.c != self.pinch.space.c:
            raise space_mismatch(self.space, self.pinch)
        lo, hi = self.pinch.r2, self.pinch.r1
        slack = _END_SNAP * max(1.0, hi)
        if not lo - slack <= self.r_tilde <= hi + slack:  # NaN fails too
            raise ValueError(
                f"inscribed radius {self.r_tilde} outside the spindle family range [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class Arc:
    """Constant-geodesic-curvature arc of a profile.

    The arc is traversed from theta_start to theta_end (increasing) in the
    polar frame (frame_u, frame_v) at its center.
    """

    center: np.ndarray
    radius: float
    theta_start: float
    theta_end: float
    frame_u: np.ndarray
    frame_v: np.ndarray
    curvature: float

    @property
    def span(self) -> float:
        return self.theta_end - self.theta_start


@dataclass(frozen=True)
class ProfileCurve:
    """Closed meridian profile: ordered arcs plus the symmetry center."""

    space: SpaceCurvature
    segments: tuple
    symmetry_center: np.ndarray


def _circle_profile(space: SpaceCurvature, radius: float, curvature: float) -> ProfileCurve:
    center, u, v = axis_point_frame(space, 0, 0.0)
    arc = Arc(center, radius, 0.0, 2.0 * math.pi, u, v, curvature)
    return ProfileCurve(space, (arc,), center)


def build_spindle(spec: SpindleSpec) -> ProfileCurve:
    """Construct the closed 4-arc spindle profile (1 arc at the family endpoints).

    Main arcs carry curvature kappa1, caps carry kappa2; the joins share
    tangents because each (main, cap) circle pair is internally tangent.
    The join angles are the right triangle's angles at the main and cap
    centers, in forms free of cancellation: with (sn, cs) = (sin, cos) on
    the sphere and (sinh, cosh) in the hyperbolic plane, tan(phi_main) =
    sn(ka) cs(kd) / sn(kd) and tan(phi_cap) = sn(ka) / (sn(kd) cs(ka)),
    both a / d in the plane.
    """
    space, pinch = spec.space, spec.pinch
    r1, r2 = pinch.r1, pinch.r2
    scale = max(1.0, r1)
    r_tilde = min(max(spec.r_tilde, r2), r1)
    if pinch.is_degenerate or r_tilde >= r1 - _END_SNAP * scale:
        return _circle_profile(space, r1, pinch.kappa1)
    if r_tilde <= r2 + _END_SNAP * scale:
        return _circle_profile(space, r2, pinch.kappa2)

    big_R = outer_radius_bound(space, pinch, r_tilde)
    a = r1 - r_tilde
    d = big_R - r2

    upper_center, up_u, up_v = axis_point_frame(space, 1, -a)
    lower_center, lo_u, lo_v = axis_point_frame(space, 1, a)
    right_center, ri_u, ri_v = axis_point_frame(space, 0, d)
    left_center, le_u, le_v = axis_point_frame(space, 0, -d)

    if space.is_flat:
        phi_main = phi_cap = math.atan2(a, d)
    else:
        sn, cs = (math.sin, math.cos) if space.kind == SPHERICAL else (math.sinh, math.cosh)
        ka, kd = space.k * a, space.k * d
        phi_main = math.atan2(sn(ka) * cs(kd), sn(kd))
        phi_cap = math.atan2(sn(ka), sn(kd) * cs(ka))

    segments = (
        Arc(right_center, r2, -phi_cap, phi_cap, ri_u, ri_v, pinch.kappa2),
        Arc(upper_center, r1, phi_main, math.pi - phi_main, up_u, up_v, pinch.kappa1),
        Arc(left_center, r2, math.pi - phi_cap, math.pi + phi_cap, le_u, le_v, pinch.kappa2),
        Arc(lower_center, r1, math.pi + phi_main, 2.0 * math.pi - phi_main, lo_u, lo_v, pinch.kappa1),
    )
    return ProfileCurve(space, segments, origin(space))


def spindle_radii(spec: SpindleSpec) -> tuple:
    """(inscribed, circumscribed) radii of the spindle, closed form."""
    r_tilde = min(max(spec.r_tilde, spec.pinch.r2), spec.pinch.r1)
    return r_tilde, outer_radius_bound(spec.space, spec.pinch, r_tilde)


def segment_length(space: SpaceCurvature, arc: Arc) -> float:
    """Arc length of one profile segment."""
    return circle_circumference_factor(space, arc.radius) * arc.span


def profile_length(profile: ProfileCurve) -> float:
    return sum(segment_length(profile.space, s) for s in profile.segments)


def arc_point(space: SpaceCurvature, arc: Arc, theta) -> np.ndarray:
    return circle_point(space, arc.center, arc.frame_u, arc.frame_v, arc.radius, theta)


def arc_tangent(space: SpaceCurvature, arc: Arc, theta) -> np.ndarray:
    return circle_tangent(space, arc.center, arc.frame_u, arc.frame_v, arc.radius, theta)


def sample_profile(profile: ProfileCurve, n: int):
    """Sample n points in arc-length order around the closed profile.

    Returns (points, curvatures): points has shape (n, dim), curvatures is
    the owning segment's curvature tag per point.  The first point starts
    the first segment; there is no duplicated closing point.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    space = profile.space
    lengths = np.array([segment_length(space, s) for s in profile.segments])
    total = float(lengths.sum())
    starts = np.concatenate([[0.0], np.cumsum(lengths)])
    s_vals = np.arange(n) * (total / n)
    seg_idx = np.minimum(np.searchsorted(starts, s_vals, side="right") - 1,
                         len(profile.segments) - 1)
    dim = profile.symmetry_center.shape[0]
    points = np.empty((n, dim))
    kappas = np.empty(n)
    for j, seg in enumerate(profile.segments):
        mask = seg_idx == j
        if not mask.any():
            continue
        local = (s_vals[mask] - starts[j]) / max(lengths[j], 1e-300)
        thetas = seg.theta_start + local * seg.span
        points[mask] = arc_point(space, seg, thetas)
        kappas[mask] = seg.curvature
    return points, kappas


def _ang_sep(x, y):
    """Circular angular separation in [0, pi]; broadcasts."""
    d = (x - y) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def _arc_dists(profile: ProfileCurve, points):
    """Per arc: the (nearest, farthest) distances (arcs, 2, ...) from points (..., dim),
    and whether each point is farther from the arc's center than its radius (arcs, ...).

    Over one arc the distance grows with the central angle away from the
    direction of the query point, so its extremes sit at the nearest and
    farthest angles clamped to the arc's span and the law of cosines gives
    them in closed form.  A point within 1e-14 of an arc's center is at the
    arc's radius from all of it.
    """
    space = profile.space
    pts = np.asarray(points, float)
    deltas, gammas = [], []
    for arc in profile.segments:
        t_near = angle_in_frame(space, arc.center, arc.frame_u, arc.frame_v, pts)
        sep_start = _ang_sep(arc.theta_start, t_near)
        sep_end = _ang_sep(arc.theta_end, t_near)
        near = arc.theta_start + (t_near - arc.theta_start) % (2.0 * math.pi)
        far = arc.theta_start + (t_near + math.pi - arc.theta_start) % (2.0 * math.pi)
        gammas.append((np.where(near <= arc.theta_end, _ang_sep(near, t_near),
                                np.minimum(sep_start, sep_end)),
                       np.where(far <= arc.theta_end, _ang_sep(far, t_near),
                                np.maximum(sep_start, sep_end))))
        deltas.append(distance(space, pts, arc.center))
    # one law-of-cosines pass over (arc, near/far, point)
    delta = np.array(deltas)[:, None]
    radius = np.array([arc.radius for arc in profile.segments]).reshape(
        (-1,) + (1,) * (delta.ndim - 1))
    dists = np.where(delta < 1e-14, radius,
                     law_of_cosines_side(space, delta, radius, np.array(gammas)))
    return dists, delta[:, 0] > radius[:, 0]


def profile_extreme_dists(profile: ProfileCurve, points):
    """(min, max) geodesic distance from meridian-plane points (..., dim) to the profile.

    Both results have shape (...); each arc gives its extremes in closed form.
    """
    dists = _arc_dists(profile, points)[0]
    return dists[:, 0].min(axis=0), dists[:, 1].max(axis=0)


def numeric_radii(profile: ProfileCurve):
    """(min, max) distance from the symmetry center to the profile, as floats.

    The closed-form arc kernel (`profile_extreme_dists`) at the symmetry
    center: each arc gives its nearest and farthest points exactly.
    """
    lo, hi = profile_extreme_dists(profile, profile.symmetry_center)
    return float(lo), float(hi)


class _ProfileBody:
    """A body bounded by its `profile`, and its own stack of one: closed-form shell answers."""

    def __len__(self):
        return 1

    @property
    def stack(self):
        return self

    def outer_radius(self, centers):
        """Largest distance from each center (one row) to the boundary."""
        return profile_extreme_dists(self.profile, centers)[1]

    def depth(self, centers):
        """Signed distance from each center (one row) to the boundary, > 0 inside.

        The size is the least distance to the profile; the nearest arc gives
        the sign.  Seen from its nearest boundary point, an exterior point
        lies outward along the normal and the arc's center inward, so it is
        farther from that center than the radius.  At a corner both arcs agree.
        """
        dists, beyond = _arc_dists(self.profile, centers)
        near = dists[:, 0].argmin(axis=0)[None]
        lo = np.take_along_axis(dists[:, 0], near, axis=0)[0]
        return np.where(np.take_along_axis(beyond, near, axis=0)[0], -lo, lo)


def _axis_chord(profile: ProfileCurve):
    """(lo, hi): the positions on axis 0 where the profile crosses the axis.

    Along an arc the off-axis coordinate is y(theta) = a + b cos(theta) +
    c sin(theta) in every model, so the crossings inside each span are
    closed-form.  A crossing at a join may round to either arc.
    """
    space, ts = profile.space, []
    for arc in profile.segments:
        y0, y1, y2 = circle_point(space, arc.center, arc.frame_u, arc.frame_v, arc.radius,
                                  [0.0, 0.5 * math.pi, math.pi])[:, 1]
        a, b = 0.5 * (y0 + y2), 0.5 * (y0 - y2)
        amp = math.hypot(b, y1 - a)
        if not abs(a) < amp:  # the circle misses the axis, or only touches it
            continue
        phi, half = math.atan2(y1 - a, b), math.acos(-a / amp)
        for theta in (phi - half, phi + half):
            w = (theta - arc.theta_start) % (2.0 * math.pi)
            if w <= arc.span + 1e-12 or w >= 2.0 * math.pi - 1e-12:
                ts.append(axis_foot(space, arc_point(space, arc, theta)))
    if not ts:
        raise ValueError("the profile does not cross its rotation axis")
    return min(ts), max(ts)


def _inscribed_revolution(profile: ProfileCurve):
    """(center, r): the largest ball centered on the profile's rotation axis.

    g(t), the distance from the axis point at t to the profile, is the
    smaller of one branch per arc.  Where the contact lies inside an arc,
    that arc's branch is its radius minus the distance to its center,
    whose top is the center's foot on the axis (closed form).  So the
    maximum of g on the chord inside the body, where g has a single
    maximum, sits at such a foot or where two branches cross.  The feet
    are scored first, in one kernel call; the best one is the maximum when
    its own arc touches there from inside its span.  Otherwise the single
    maximum is a crossing, and a grid zoom over the whole chord
    (`bracketed_min`) returns its best sample, however many branches meet
    near it.
    """
    space = profile.space
    # beyond the chord the axis point is outside the body, where the distance
    # to the profile is not the inscribed objective
    lo, hi = _axis_chord(profile)
    tie = 1e-12 * (hi - lo)
    feet = np.clip([axis_foot(space, arc.center) for arc in profile.segments], lo, hi)
    ts = np.unique(feet)
    pts = axis_points(space, ts)
    g = profile_extreme_dists(profile, pts)[0]
    i = int(np.argmax(g))
    for arc in (arc for arc, foot in zip(profile.segments, feet) if foot == ts[i]):
        inner = arc.radius - float(distance(space, pts[i], arc.center))
        if inner >= 0.0 and abs(g[i] - inner) <= tie:
            return pts[i], float(g[i])

    # no foot is the maximum: zoom a grid on the chord, stopping a few ulps
    # wide so that a maximum at t = 0 does not shrink the bracket to subnormals
    xtol = 8.0 * float(np.finfo(float).eps) * max(abs(lo), abs(hi))
    t, neg_g = bracketed_min(lambda t: -profile_extreme_dists(profile, axis_points(space, t))[0],
                             lo, hi, xtol)
    return axis_points(space, t), -neg_g


def join_jumps(profile: ProfileCurve):
    """(gaps, angles, scales) per join of arc i to arc i + 1 (cyclically).

    The gap is the distance from arc i's end point to arc i + 1's start
    point, and the angle is between the two arcs' unit tangents there.
    Both are measured in forms that stay accurate near zero (chordal gap,
    half-chord angle), so machine-exact joins report ~1e-16, not the
    sqrt(eps) floor of acos.  The scale, the end point's norm plus arc i's
    radius, is the size of the gap's rounding in every model."""
    space = profile.space
    segs = profile.segments
    gaps, angles, scales = [], [], []
    for i, seg in enumerate(segs):
        nxt = segs[(i + 1) % len(segs)]
        p_end = arc_point(space, seg, seg.theta_end)
        p_start = arc_point(space, nxt, nxt.theta_start)
        gaps.append(float(np.linalg.norm(p_end - p_start)))
        scales.append(float(np.linalg.norm(p_end)) + seg.radius)
        t_end = arc_tangent(space, seg, seg.theta_end)
        t_start = arc_tangent(space, nxt, nxt.theta_start)
        delta = t_end - t_start
        half_chord = 0.5 * math.sqrt(max(float(tangent_inner(space, delta, delta)), 0.0))
        angles.append(2.0 * math.asin(min(half_chord, 1.0)))
    return np.array(gaps), np.array(angles), np.array(scales)


def join_tangent_mismatch(profile: ProfileCurve) -> float:
    """Largest positional gap / tangent angle between consecutive segments (`join_jumps`)."""
    gaps, angles, _ = join_jumps(profile)
    return max(0.0, float(gaps.max()), float(angles.max()))


def require_tangent_joins(profile: ProfileCurve, what: str) -> None:
    """Refuse a profile with a corner: ValueError naming the first join whose
    normal angle or relative position jumps by more than 1e-9 (`join_jumps`)."""
    gaps, angles, scales = join_jumps(profile)
    rel = gaps / scales
    broken = np.flatnonzero((rel > 1e-9) | (angles > 1e-9))
    if broken.size:
        i = int(broken[0])
        raise ValueError(f"{what} need tangent joins: there is a corner from arc {i} to arc "
                         f"{(i + 1) % gaps.size}, where the normal angle jumps by "
                         f"{angles[i]:.6g} rad and the position by {rel[i]:.3g} (relative)")
