"""Empirical verification of the shell bounds on concrete convex bodies.

The shell of a body is centered at its inscribed-ball (Chebyshev) center.
Flat support-function bodies are solved as stacks by `_flat`: the
certified Chebyshev center (an exact LP on the 2048-direction grid, a
contact Newton and a weak-duality certificate) and the Newton-polished
circumscribed radius.  `check_bounds` runs a flat body as its stack of
one through the same `_check_stack` as `verify_batch`, which checks the
seeded random bodies as stacks of at most STACK_CAP, in at most one
process per STACK_CAP seeds begun; a body's record does not depend on
the stack or the process it was checked in.  `inscribed_ball` and
`circumscribed_from_center` also run a flat body as a stack of one, the
latter testing first that its center is interior.
Rotationally symmetric bodies restrict the center to the rotation axis,
where the maximum lies at the foot of an arc center (closed form) or
where distance branches of arcs cross (a grid zoom along the axis chord).
All 1-D searches come from `_optim`, so the module needs numpy alone.

Evaluations of a trigonometric body's series on the fixed direction
grids (the 2048-direction support grid, and the rolling check's default
100 samples and 512 probes) read the shared mode tables of `bodies`.
The flat rolling check's outer test takes the square root of the largest
squared distance: sqrt is monotone and correctly rounded, so the verdict
is the distance test's bit for bit, without a (samples, probes, 2) array
and its norm.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._flat import _BodyError, _circumscribed, _inscribed_support, _support_gap_minima
from ._optim import bracketed_min
from .bodies import (
    RevolutionBody,
    angle_grid,
    curvature_range,
    random_pinched_stack,
    unit_vectors,
)
from .bounds import outer_radius_bound, quotient_bound, width_bound
from .geometry import (
    PinchSpec,
    SpaceCurvature,
    axis_foot,
    axis_points,
    circle_point,
    distance,
)
from .spindle import ProfileCurve, arc_point, profile_extreme_dists, segment_length

BOUND_SLACK = 1e-7  # slack of the satisfied flags, relative to r1: absorbs discretization


@dataclass(frozen=True)
class BoundChecks:
    width: bool
    outer: bool
    quotient: bool | None

    @property
    def all_ok(self) -> bool:
        return self.width and self.outer and (self.quotient is None or self.quotient)


@dataclass(frozen=True)
class ShellResult:
    """Computed shell of one body, with the theoretical bounds it must obey."""

    center: np.ndarray
    inner_r: float
    outer_R: float
    width: float
    quotient: float
    width_bound: float
    outer_bound: float
    quotient_bound: float | None
    satisfied: BoundChecks

    @property
    def margins(self) -> dict:
        m = {
            "width": self.width_bound - self.width,
            "outer": self.outer_bound - self.outer_R,
        }
        if self.quotient_bound is not None:
            m["quotient"] = self.quotient_bound - self.quotient
        return m


# ---------------------------------------------------------------------------
# Rotationally symmetric bodies: the inscribed center on the rotation axis.

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


def _inscribed_revolution(body: RevolutionBody):
    """Largest ball centered on the rotation axis.

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
    space, profile = body.space, body.profile
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


def inscribed_ball(body):
    """Center and radius of the largest ball inside the body.

    Flat support bodies solve the concave maximin over the plane as a
    stack of one, the radius certified by weak duality as
    `_inscribed_support` states; revolution bodies maximize along the
    rotation axis: at the foot of an arc center (closed form), or else
    by a grid zoom along the chord inside the body.
    """
    if isinstance(body, RevolutionBody):
        return _inscribed_revolution(body)
    o, r, _ = _inscribed_support(body.stack)
    return o[0], float(r[0])


def circumscribed_from_center(body, center):
    """Largest geodesic distance from center to the boundary.

    The center must be interior: a flat body tests it by its support gap
    minima.  Support bodies scan the boundary over the direction grid and
    Newton-polish the top local maxima (`_circumscribed`, as a stack of
    one); revolution bodies use the per-arc closed form.
    """
    if isinstance(body, RevolutionBody):
        lo, hi = profile_extreme_dists(body.profile, center)
        if lo <= 0.0:
            raise ValueError("center must be interior to the body")
        return float(hi)
    o = np.asarray(center, float)[None]
    stack = body.stack
    if _support_gap_minima(stack, o)[0][0] <= 0.0:
        raise ValueError("center must be interior to the body")
    return float(_circumscribed(stack, o)[0])


def _pinch_precondition(body, pinch: PinchSpec):
    """Raise when the body, or a body of a stack, leaves the curvature pinching.

    The tolerance is 1e-8 kappa2, so it scales with the pinching and stays
    above the rounding of 1 / r at any scale.
    """
    kmin, kmax = (np.atleast_1d(v) for v in curvature_range(body))
    tol = 1e-8 * pinch.kappa2
    bad = np.flatnonzero((kmin < pinch.kappa1 - tol) | (kmax > pinch.kappa2 + tol))
    if bad.size:
        k = bad[0]
        lo, hi, lo_t, hi_t = (np.atleast_1d(v)[k] for v in body.rho_range())
        raise _BodyError(k, (
            "body violates the curvature pinching: "
            f"normal curvature range [{kmin[k]:.12g}, {kmax[k]:.12g}] vs "
            f"[{pinch.kappa1:.12g}, {pinch.kappa2:.12g}] "
            f"(curvature radius extremes at t={hi_t:.6g} and t={lo_t:.6g})"
        ))


def _shells(pinch: PinchSpec, centers, inner, outer) -> list:
    """ShellResults for bodies of these centers and radii; the bound formulas once per pinching.

    The slack of the satisfied flags and the range test on r scale with
    r1, so a scaled body and pinching keep their verdicts.
    """
    space = pinch.space
    wb = width_bound(space, pinch).bound
    qb = quotient_bound(pinch).bound if space.kind == "flat" else None
    slack = BOUND_SLACK * pinch.r1
    out = []
    for k, (center, r, big_r) in enumerate(zip(centers, inner, outer)):
        r, big_r = float(r), float(big_r)
        r_clamped = min(max(r, pinch.r2), pinch.r1)
        if abs(r_clamped - r) > 1e-6 * pinch.r1:
            raise _BodyError(k, f"inscribed radius {r} escapes [{pinch.r2}, {pinch.r1}]; "
                                "the body is not pinched as claimed")
        width = big_r - r
        quotient = big_r / r
        ob = outer_radius_bound(space, pinch, r_clamped)
        checks = BoundChecks(
            width=width <= wb + slack,
            outer=big_r <= ob + slack,
            quotient=None if qb is None else quotient <= qb + slack,
        )
        res = ShellResult(center, r, big_r, width, quotient, wb, ob, qb, checks)
        # a non-finite shell is a numerical failure, not a bound violation
        if not all(math.isfinite(v) for v in (r, big_r, *res.margins.values())):
            raise _BodyError(k, f"non-finite shell: r = {r}, R = {big_r}, margins {res.margins}")
        out.append(res)
    return out


def _require_same_space(body, pinch: PinchSpec) -> None:
    space = pinch.space
    if body.space != space:
        raise ValueError(f"the body lies in {body.space.kind} space (c = {body.space.c}), "
                         f"the pinching in {space.kind} space (c = {space.c})")


def check_bounds(body, pinch: PinchSpec) -> ShellResult:
    """Compute the body's shell at the inscribed center and compare to the bounds.

    A flat body is checked as its stack of one (`_check_stack`).
    """
    _require_same_space(body, pinch)
    if not isinstance(body, RevolutionBody):
        return _check_stack(body.stack, pinch)[0]
    _pinch_precondition(body, pinch)
    center, r = inscribed_ball(body)
    big_r = circumscribed_from_center(body, center)
    return _shells(pinch, [center], [r], [big_r])[0]


def _check_stack(stack, pinch: PinchSpec) -> list:
    """The ShellResults of the bodies of a stack of flat bodies.

    The certified center of r > 0 is interior, so it goes straight to the
    circumscribed scan.
    """
    _pinch_precondition(stack, pinch)
    centers, inner, _ = _inscribed_support(stack)
    outside = np.flatnonzero(inner <= 0.0)
    if outside.size:
        raise _BodyError(outside[0], "center must be interior to the body")
    return _shells(pinch, centers, inner, _circumscribed(stack, centers))


# ---------------------------------------------------------------------------
# Blaschke rolling checks.

def rolling_check(body, pinch: PinchSpec, samples: int = 100, probes: int = 512,
                  tol: float = 1e-9) -> bool:
    """Sampled rolling test: the tangent ball of radius r2 fits inside, the
    body fits inside the tangent ball of radius r1, at each sampled
    boundary point.  Containment is probed on a grid of boundary points
    (probes per ball), to tol * r1, so a scaled body keeps its verdict.
    A body and a pinching of different geometries raise ValueError."""
    _require_same_space(body, pinch)
    tol = tol * pinch.r1
    if isinstance(body, RevolutionBody):
        return _rolling_revolution(body, pinch, samples, tol)
    th = angle_grid(samples)
    x = np.asarray(body.boundary(th))
    u = unit_vectors(th)
    c_in = x - pinch.r2 * u
    c_out = x - pinch.r1 * u

    th_probe = angle_grid(probes)
    u_probe = unit_vectors(th_probe)
    h_probe = np.asarray(body.h(th_probe))
    x_probe = np.asarray(body.boundary(th_probe))

    inner_gap = h_probe[None, :] - c_in @ u_probe.T  # support gap per (sample, probe)
    if inner_gap.min() < pinch.r2 - tol:
        return False
    # sqrt is monotone and correctly rounded, so the root of the largest
    # squared distance is the largest distance bit for bit
    dx = x_probe[None, :, 0] - c_out[:, None, 0]
    dy = x_probe[None, :, 1] - c_out[:, None, 1]
    return math.sqrt(float((dx * dx + dy * dy).max())) <= pinch.r1 + tol


def _rolling_revolution(body: RevolutionBody, pinch: PinchSpec, samples: int, tol: float) -> bool:
    space, profile = body.space, body.profile
    lengths = np.array([segment_length(space, s) for s in profile.segments])
    counts = np.maximum((samples * lengths / lengths.sum()).round().astype(int), 1)
    c_in, c_out = [], []
    for seg, m in zip(profile.segments, counts):
        thetas = seg.theta_start + (np.arange(m) + 0.5) / m * seg.span
        # a tangent ball of radius r at a sample is centered on the sample's
        # own normal geodesic, at signed distance rho - r from the arc center
        for centers, r in ((c_in, pinch.r2), (c_out, pinch.r1)):
            centers.append(circle_point(space, seg.center, seg.frame_u, seg.frame_v,
                                        seg.radius - r, thetas))
    n_in = int(counts.sum())
    lo, hi = profile_extreme_dists(profile, np.concatenate(c_in + c_out))
    return not ((lo[:n_in] < pinch.r2 - tol).any() or (hi[n_in:] > pinch.r1 + tol).any())


# ---------------------------------------------------------------------------
# Batch verification over seeded random bodies.

def _record_from_result(res: ShellResult, seed, pinch: PinchSpec) -> dict:
    rec = {
        "seed": seed,
        "kappa1": pinch.kappa1,
        "kappa2": pinch.kappa2,
        "r": res.inner_r,
        "R": res.outer_R,
        "width": res.width,
        "quotient": res.quotient,
        "bounds": {
            "width": res.width_bound,
            "outer": res.outer_bound,
            "quotient": res.quotient_bound,
        },
        "satisfied": {
            "width": res.satisfied.width,
            "outer": res.satisfied.outer,
            "quotient": res.satisfied.quotient,
        },
        "margins": res.margins,
    }
    return rec


STACK_CAP = 64  # bodies per stack, so peak memory does not grow with the seed count


def _check_share(kappa1, kappa2, seeds, modes):
    """Records of the seeded random bodies, checked in stacks of at most STACK_CAP."""
    pinch = PinchSpec.from_curvatures(SpaceCurvature.flat(), kappa1, kappa2)
    records = []
    for lo in range(0, len(seeds), STACK_CAP):
        part = seeds[lo:lo + STACK_CAP]
        try:
            results = _check_stack(random_pinched_stack(pinch, part, modes), pinch)
        except _BodyError as exc:
            raise ValueError(f"seed {part[exc.body]}: {exc}") from None
        records += [_record_from_result(res, seed, pinch) for res, seed in zip(results, part)]
    return records


def verify_batch(pinch: PinchSpec, seeds, modes: int = 8, jobs: int = 1):
    """Run check_bounds on the seeded random-body family; records sorted by seed.

    `jobs` is the most processes to use, the calling one included.  The
    seeds split into min(jobs, ceil(len(seeds) / STACK_CAP)) shares whose
    sizes differ by at most one, so a worker is forked only for a share of
    at least half a stack: below that, its fork and the copy-on-write
    faults it causes cost more than the work it takes over.  The calling
    process checks the first share itself and one worker process checks
    each of the others, each share as stacks of at most STACK_CAP bodies.
    A record does not depend on the stack or the share it was checked in,
    so the records are the same for every jobs.  A failure names its seed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1 (got {jobs})")
    seeds = [int(s) for s in seeds]
    n = max(min(jobs, -(-len(seeds) // STACK_CAP)), 1)
    size, extra = divmod(len(seeds), n)  # the first `extra` shares take one more
    ends = [i * size + min(i, extra) for i in range(n + 1)]
    shares = [seeds[a:b] for a, b in zip(ends[:-1], ends[1:]) if b > a]
    args = (pinch.kappa1, pinch.kappa2)
    if len(shares) > 1:
        with ProcessPoolExecutor(max_workers=len(shares) - 1) as pool:
            futures = [pool.submit(_check_share, *args, share, modes) for share in shares[1:]]
            records = _check_share(*args, shares[0], modes)
            for fut in futures:
                records += fut.result()
    else:
        records = _check_share(*args, seeds, modes)
    records.sort(key=lambda r: r["seed"])
    return records


def write_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def summarize_worst_margins(records) -> dict:
    """Worst (smallest) margin per bound over a batch, plus extreme widths."""
    out = {
        "count": len(records),
        "worst_width_margin": min(r["margins"]["width"] for r in records),
        "worst_outer_margin": min(r["margins"]["outer"] for r in records),
        "max_width": max(r["width"] for r in records),
        "max_quotient": max(r["quotient"] for r in records),
        "all_satisfied": all(
            r["satisfied"]["width"] and r["satisfied"]["outer"]
            and (r["satisfied"]["quotient"] is not False)
            for r in records
        ),
    }
    q_margins = [r["margins"].get("quotient") for r in records]
    if all(m is not None for m in q_margins) and q_margins:
        out["worst_quotient_margin"] = min(q_margins)
    return out


def write_summary_csv(summaries, path) -> None:
    """One row per pinch: worst margins of its batch."""
    cols = ["kappa1", "kappa2", "count", "worst_width_margin", "worst_outer_margin",
            "worst_quotient_margin", "max_width", "max_quotient", "all_satisfied"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in summaries:
            fh.write(",".join(str(s.get(c, "")) for c in cols) + "\n")
