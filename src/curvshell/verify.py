"""Empirical verification of the shell bounds on concrete convex bodies.

The shell of a body is centered at its inscribed-ball (Chebyshev) center.
For planar support-function bodies the center solves the concave maximin

    maximize over o of  min over t of  h(t) - <o, u(t)>,

here in two steps.  The linear maximin over the 2048 support directions
is solved exactly by a primal simplex on its 3-row dual, and certified
by primal and dual feasibility of the final basis.  An active-set polish
then resolves the exact contacts of the smooth problem (Newton on
three spanning contacts, a ridge solve on an antipodal pair, or ascent
line searches); a ball about the LP center needs none.  The
circumscribed radius Newton-polishes the largest grid distances from the
center, using the exact derivatives of the boundary along its normal
angle.  Rotationally symmetric bodies restrict the center to the
rotation axis, where the maximum lies at the foot of an arc center
(closed form) or where two arcs' distance branches cross (Brent's
bracketed root finder).  All 1-D searches come from `_optim`, so the
module needs numpy alone.

Evaluations on the fixed direction grids (the 2048-direction support
grid, and the rolling check's default 100 samples and 512 probes) read
the shared trigonometric tables of `bodies`, so a body costs no cos or
sin on them.  The flat rolling check's outer test takes the square root
of the largest squared distance: sqrt is monotone and correctly rounded,
so the verdict is the distance test's bit for bit, without a
(samples, probes, 2) array and its norm.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._optim import (
    bracketed_root,
    golden_section_max,
    local_extrema_mask,
    refine_critical_points,
)
from .bodies import (
    GRID_N,
    THETA_GRID,
    RevolutionBody,
    angle_grid,
    cos_sin,
    curvature_range,
    random_pinched_curve,
    rho_range,
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

BOUND_SLACK = 1e-7  # tolerance absorbing discretization in the satisfied flags


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
# Support-gap minimization (flat bodies).

def _gap_fns(body, o):
    """f(t) = h(t) - <o, u(t)> and its t-derivatives (f'' = rho - f)."""
    o = np.asarray(o, float)

    def f(t):
        t = np.asarray(t, float)
        cos_t, sin_t = cos_sin(t)
        return body.h(t) - (cos_t * o[0] + sin_t * o[1])

    def fp(t):
        t = np.asarray(t, float)
        cos_t, sin_t = cos_sin(t)
        return body.h_prime(t) + sin_t * o[0] - cos_t * o[1]

    def fpp(t):
        return np.asarray(body.rho(t), float) - np.asarray(f(t), float)

    return f, fp, fpp


def _support_gap_minima(body, o, with_ball=False):
    """Newton-refined local minima of the support gap at center o.

    Returns (global_min, thetas, values), values ascending and thetas
    deduplicated to one representative per branch.  With with_ball=True a
    fourth element tells whether the body is a ball about o: the gap
    varies over the grid by at most 1e-13 (max |gap| + |o|), relative to
    its rounding at an exact center.  A ball's gap is flat and f'' ~ 0 gives Newton
    nothing to refine, so its unrefined grid minimum is the only branch.
    """
    f, fp, fpp = _gap_fns(body, o)
    f_grid = f(THETA_GRID)
    i_min = int(np.argmin(f_grid))
    gmin = float(f_grid[i_min])
    if f_grid.max() - gmin <= 1e-13 * (float(np.abs(f_grid).max()) + float(np.linalg.norm(o))):
        thetas, values = THETA_GRID[i_min:i_min + 1], f_grid[i_min:i_min + 1]
        return (gmin, thetas, values, True) if with_ball else (gmin, thetas, values)
    min_mask, _ = local_extrema_mask(f_grid)
    t0 = THETA_GRID[min_mask]
    step = 2.0 * math.pi / GRID_N
    t_ref = refine_critical_points(fp, fpp, t0, step)
    v_ref = np.asarray(f(t_ref), float)
    v0 = f_grid[min_mask]
    better = v_ref <= v0
    thetas = np.mod(np.where(better, t_ref, t0), 2.0 * math.pi)
    values = np.where(better, v_ref, v0)
    # one representative per branch
    order = np.argsort(thetas)
    thetas, values = thetas[order], values[order]
    if thetas.size > 1:
        gaps = np.diff(thetas, append=thetas[0] + 2.0 * math.pi)
        fresh = np.concatenate([[True], gaps[:-1] > 1e-6])
        thetas, values = thetas[fresh], values[fresh]
    gmin = float(min(values.min(), f_grid.min()))
    order = np.argsort(values)
    if with_ball:
        return gmin, thetas[order], values[order], False
    return gmin, thetas[order], values[order]


def _branch_min(body, o, t_seed):
    """Refine a single local minimum of the support gap near t_seed."""
    f, fp, fpp = _gap_fns(body, o)
    t = refine_critical_points(fp, fpp, np.array([t_seed]), 0.05)
    return float(np.asarray(f(t), float)[0]), float(t[0])


_LP_TOL = 1e-13  # feasibility tolerance of the maximin LP, relative to max |h| + |o|
_LP_PIVOT_TOL = 1e-12  # smallest basis coefficient the ratio test may pivot on
_LP_BLAND_AFTER = 3  # consecutive degenerate pivots before Bland's rule takes over


def _maximin_lp(a_dirs, b_vals):
    """max t s.t. <o, u_j> + t <= h_j; returns (o, t).

    Primal simplex on the dual  min h.lam  s.t.  sum lam_j u_j = 0,
    sum lam_j = 1, lam >= 0, whose basis is three rows: (o, t) makes them
    tight and lam_B are their weights.  Rows 0, n//3 and 2n//3 of an
    evenly spaced direction grid positively span the plane, so they start
    dual feasible.  Each pivot brings in the most violated row (a Remez
    exchange) and drops the basis row picked by the ratio test on lam_B;
    during a run of degenerate pivots Bland's rule (lowest index first)
    takes over, so a stall cannot cycle.  The loop stops when every row
    holds to _LP_TOL (max |h| + |o|), relative to the size of the
    rounding in the slacks, whatever the scale of the body, with
    lam_B >= 0: primal and dual feasibility certify that t is the
    maximum.  The basis rows count as tight, so their rounding residue
    never picks one of them to enter again.  Raises ValueError on
    non-finite data, a start basis that does not span, or a pivot count
    above the number of rows.
    """
    h = np.asarray(b_vals, float)
    rows = np.column_stack([a_dirs, np.ones(h.size)])
    if not (np.isfinite(h).all() and np.isfinite(rows).all()):
        raise ValueError("support maximin LP: non-finite support values")
    n, h_size = h.size, float(np.abs(h).max())
    basis = [0, n // 3, 2 * n // 3]
    if not abs(np.linalg.det(rows[basis])) > 1e-12:
        raise ValueError("support maximin LP: singular start basis (rows 0, n//3, 2n//3)")
    m_inv = np.linalg.inv(rows[basis])
    if m_inv[2].min() < 0.0:
        raise ValueError("support maximin LP: the start rows 0, n//3, 2n//3 "
                         "do not positively span the plane")
    stall = 0
    for _ in range(n):
        x = m_inv @ h[basis]  # (o, t) with the basis rows tight
        lam = m_inv[2]  # basis weights: rows[basis].T @ lam = (0, 0, 1)
        slack = h - rows @ x
        # the basis rows are tight by construction: their rounding residue
        # must not let one of them enter again, which cycles on dense grids
        slack[basis] = 0.0
        tol = _LP_TOL * (h_size + math.hypot(x[0], x[1]))
        violated = slack < -tol
        if not violated.any():
            if lam.min() < -_LP_TOL:
                raise ValueError("support maximin LP: a basis weight went negative")
            return x[:2], float(x[2])
        bland = stall >= _LP_BLAND_AFTER
        k = int(np.argmax(violated)) if bland else int(np.argmin(slack))
        w = rows[k] @ m_inv  # rows[k] = sum_i w_i rows[basis[i]]
        pos = w > _LP_PIVOT_TOL
        ratio = np.full(3, np.inf)
        ratio[pos] = np.maximum(lam[pos], 0.0) / w[pos]
        step = ratio.min()
        if not math.isfinite(step):
            raise ValueError("support maximin LP: no basis row can leave (unbounded dual)")
        if bland:
            leave = min((basis[i], i) for i in range(3) if ratio[i] <= step)[1]
        else:
            leave = int(np.argmin(ratio))
        stall = stall + 1 if step <= _LP_TOL else 0
        basis[leave] = k
        m_inv = np.linalg.inv(rows[basis])
    raise ValueError(f"support maximin LP: no optimum after {n} pivots")


def _spanning(thetas) -> bool:
    """Whether the active normals positively span the plane."""
    if thetas.size < 3:
        return False
    ang = np.sort(np.mod(thetas, 2.0 * math.pi))
    gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
    return bool(gaps.max() < math.pi - 1e-9)


def _best_spread_triple(thetas):
    """Pick three active normals with the largest minimal pairwise spread."""
    thetas = thetas[:12]  # near-ball bodies can have many near-equal contacts
    ang = np.mod(thetas, 2.0 * math.pi)
    idx = np.argsort(ang)
    ang = ang[idx]
    best, best_spread = None, -1.0
    n = ang.size

    for tri in itertools.combinations(range(n), 3):
        a = ang[list(tri)]
        gaps = np.diff(np.concatenate([a, [a[0] + 2.0 * math.pi]]))
        if gaps.max() >= math.pi - 1e-9:
            continue
        spread = gaps.min()
        if spread > best_spread:
            best_spread, best = spread, thetas[idx][list(tri)]
    return best


def _newton_triple(body, o, tri, size):
    """Newton iteration on three active contacts: intersect the tangent cuts.

    Stops once a step is below 1e-14 (size + |o|), size being the scale of
    the body's support values.
    """
    tri = np.array(tri, float)
    for _ in range(20):
        f, fp, fpp = _gap_fns(body, o)
        tri = refine_critical_points(fp, fpp, tri, 0.05)
        u = unit_vectors(tri)
        rows = np.column_stack([u, np.ones(3)])
        try:
            sol = np.linalg.solve(rows, np.asarray(body.h(tri), float))
        except np.linalg.LinAlgError:
            return o, None
        o_new, t_val = sol[:2], sol[2]
        if np.linalg.norm(o_new - o) <= 1e-14 * (size + np.linalg.norm(o)):
            return o_new, t_val
        o = o_new
    return o, t_val


def _line_search(body, o, direction, size):
    """Bounded golden maximization of the refined gap along a ray.

    The ray runs 2 (size + |o|) from o and is resolved to 1e-12 size.
    """

    def g(s):
        return _support_gap_minima(body, o + s * direction)[0]

    span = 2.0 * (size + float(np.linalg.norm(o)))
    s_star, _ = golden_section_max(g, 0.0, span, xtol=1e-12 * size)
    return o + s_star * direction


def _ridge_newton(body, o, theta1, theta2, size):
    """Solve the two-contact optimum: equal branch values, antipodal normals.

    Newton on F(o) = (g1 - g2, theta1 - theta2 - pi), using
    d theta_i / d o = u'(theta_i) / f''(theta_i); quadratic convergence to
    machine precision where golden section would hit the sqrt(eps) floor.
    Steps and curvatures are measured against size + |o|, size being the
    scale of the body's support values.
    """
    t1, t2 = theta1, theta2
    scale = size + float(np.linalg.norm(o))
    for _ in range(40):
        g1, t1 = _branch_min(body, o, t1)
        g2, t2 = _branch_min(body, o, t2)
        _, _, fpp = _gap_fns(body, o)
        c1, c2 = float(fpp(t1)), float(fpp(t2))
        if c1 <= 1e-12 * size or c2 <= 1e-12 * size:
            return o, False
        u1, u2 = unit_vectors(np.array([t1, t2]))
        up1 = np.array([-u1[1], u1[0]])
        up2 = np.array([-u2[1], u2[0]])
        r_val = g1 - g2
        r_ang = math.remainder(t1 - t2 - math.pi, 2.0 * math.pi)
        jac = np.vstack([u2 - u1, up1 / c1 - up2 / c2])
        try:
            delta = np.linalg.solve(jac, -np.array([r_val, r_ang]))
        except np.linalg.LinAlgError:
            return o, False
        norm = float(np.linalg.norm(delta))
        if norm > 0.1 * scale:
            delta *= 0.1 * scale / norm
        o = o + delta
        if norm <= 1e-15 * scale:
            return o, True
    return o, False


def _inscribed_support(body, grid_offset=0.0):
    """Chebyshev center of a support-function body: grid LP plus active-set polish.

    The linear maximin over the direction grid lands in the optimum's
    basin; the polish then resolves the exact contact structure (three
    spanning contacts -> Newton; an antipodal pair -> ridge maximization;
    fewer contacts -> ascent line searches).  grid_offset rotates the
    initial grid and must not change the result (restart stability).
    Every tolerance of the polish is relative to size = max |h| over the
    grid, so a scaled body gives the scaled center and radius.
    """
    thetas = THETA_GRID + grid_offset if grid_offset else THETA_GRID
    u_grid = unit_vectors(thetas)
    h_grid = np.asarray(body.h(thetas), float)
    o, t_upper = _maximin_lp(u_grid, h_grid)
    size = float(np.abs(h_grid).max())

    best_o, best_val = o, _support_gap_minima(body, o)[0]
    for _ in range(16):
        gmin, t_min, v_min, ball = _support_gap_minima(body, o, with_ball=True)
        if gmin > best_val:
            best_o, best_val = o, gmin
        if ball:  # every direction touches
            return o, gmin
        window = max(10.0 * max(t_upper - gmin, 0.0), 1e-11 * size) + 1e-13 * size
        act = t_min[v_min <= v_min[0] + window]
        if _spanning(act):
            tri = _best_spread_triple(act)
            if tri is not None:
                o_new, t_val = _newton_triple(body, o, tri, size)
                if t_val is not None:
                    g_new, _, _ = _support_gap_minima(body, o_new)
                    if g_new >= t_val - 1e-12 * size:
                        return (o_new, g_new) if g_new >= best_val else (best_o, best_val)
                    # a branch outside the triple dips lower: iterate with it
                    o, t_upper = o_new, t_val
                    continue
        if act.size >= 2:
            d_ang = abs((act[0] - act[1]) % (2.0 * math.pi) - math.pi)
            if d_ang < 0.1:
                o_new, ok = _ridge_newton(body, o, act[0], act[1], size)
                g_new, _, _ = _support_gap_minima(body, o_new)
                if ok and g_new >= best_val - 1e-13 * size:
                    return o_new, g_new
                if g_new > best_val:
                    best_o, best_val = o_new, g_new
                o = o_new
                continue
        # ascend against the mean active normal until more contacts appear
        u_act = unit_vectors(act[: min(act.size, 2)])
        direction = -u_act.sum(axis=0)
        nrm = np.linalg.norm(direction)
        if nrm < 1e-12:
            return best_o, best_val
        o = _line_search(body, o, direction / nrm, size)
    gmin, _, _ = _support_gap_minima(body, o)
    return (o, gmin) if gmin >= best_val else (best_o, best_val)


# ---------------------------------------------------------------------------
# Rotationally symmetric bodies: the inscribed center on the rotation axis.

_AXIS_GRID = 17  # chord samples that bracket a crossing of two contact branches


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
    its own arc touches there from inside its span.  Otherwise a chord
    grid brackets the crossing next to the best sample, a root finder
    solves it, and the candidates are scored again.
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

    # per-arc branches on a chord grid: the active arc changes across a crossing
    ts = np.unique(np.concatenate([np.linspace(lo, hi, _AXIS_GRID), feet]))
    arcs = [ProfileCurve(space, (arc,), profile.symmetry_center) for arc in profile.segments]

    def branches(t):
        return np.array([profile_extreme_dists(a, axis_points(space, t))[0] for a in arcs])

    def gap(t, a, b):
        v = branches(t)
        return float(v[a] - v[b])

    vals = branches(ts)
    i = int(np.argmax(vals.min(axis=0)))
    cands = [ts[i]]
    for j in (i - 1, i):
        if j < 0 or j + 1 >= ts.size:
            continue
        a, b = int(np.argmin(vals[:, j])), int(np.argmin(vals[:, j + 1]))
        # mirror arcs give equal branches on the axis: no crossing between them
        if vals[b, j] - vals[a, j] > tie and vals[a, j + 1] - vals[b, j + 1] > tie:
            cands.append(bracketed_root(lambda t: gap(t, a, b), ts[j], ts[j + 1], xtol=tie))
    pts = axis_points(space, cands)
    g = profile_extreme_dists(profile, pts)[0]
    i = int(np.argmax(g))
    return pts[i], float(g[i])


def inscribed_ball(body):
    """Center and radius of the largest ball inside the body.

    Flat support bodies solve the concave maximin over the plane (objective
    certified to 1e-10); revolution bodies maximize along the rotation axis
    over closed-form candidates: the feet of the arc centers and the
    crossings of two arcs' distance branches.
    """
    if isinstance(body, RevolutionBody):
        return _inscribed_revolution(body)
    return _inscribed_support(body)


def circumscribed_from_center(body, center):
    """Largest geodesic distance from center to the boundary.

    The center must be interior.  Support bodies scan the boundary over the
    direction grid and Newton-polish the top local maxima; revolution
    bodies use the per-arc closed form.
    """
    if isinstance(body, RevolutionBody):
        lo, hi = profile_extreme_dists(body.profile, center)
        if lo <= 0.0:
            raise ValueError("center must be interior to the body")
        return float(hi)
    o = np.asarray(center, float)
    gmin, _, _ = _support_gap_minima(body, o)
    if gmin <= 0.0:
        raise ValueError("center must be interior to the body")
    bpts = np.asarray(body.boundary(THETA_GRID))
    d2 = ((bpts - o) ** 2).sum(axis=1)
    _, max_mask = local_extrema_mask(d2)
    cand = THETA_GRID[max_mask]
    cand = cand[np.argsort(d2[max_mask])][-4:]

    # f = |b - o|^2 / 2 along the normal angle t, where b' = rho u_perp:
    # f' = rho <b - o, u_perp>,  f'' = rho' <b - o, u_perp> + rho^2 - rho <b - o, u>
    def arms(t):
        rel = np.asarray(body.boundary(t)) - o
        u = unit_vectors(t)
        return (rel * u).sum(axis=-1), rel[..., 1] * u[..., 0] - rel[..., 0] * u[..., 1]

    def fp(t):
        return np.asarray(body.rho(t), float) * arms(t)[1]

    def fpp(t):
        along, across = arms(t)
        rho = np.asarray(body.rho(t), float)
        return np.asarray(body.rho_prime(t), float) * across + rho * (rho - along)

    # the distance is flat to second order at a maximum: a 1e-10 step leaves
    # an error far below rounding, and near-round bodies (f'' ~ 0) stop there
    # instead of stepping through rounding noise
    t = refine_critical_points(fp, fpp, cand, 2.0 * math.pi / GRID_N, tol=1e-10)
    polished = ((np.asarray(body.boundary(t)) - o) ** 2).sum(axis=-1)
    return math.sqrt(max(float(d2.max()), float(polished.max())))


def _pinch_precondition(body, pinch: PinchSpec):
    kmin, kmax = curvature_range(body)
    tol = 1e-8
    if kmin < pinch.kappa1 - tol or kmax > pinch.kappa2 + tol:
        lo, hi, lo_t, hi_t = rho_range(body)
        raise ValueError(
            "body violates the curvature pinching: "
            f"normal curvature range [{kmin:.12g}, {kmax:.12g}] vs "
            f"[{pinch.kappa1:.12g}, {pinch.kappa2:.12g}] "
            f"(curvature radius extremes at t={hi_t:.6g} and t={lo_t:.6g})"
        )


def check_bounds(body, pinch: PinchSpec) -> ShellResult:
    """Compute the body's shell at the inscribed center and compare to the bounds."""
    _pinch_precondition(body, pinch)
    space = body.space if isinstance(body, RevolutionBody) else SpaceCurvature.flat()
    center, r = inscribed_ball(body)
    big_r = circumscribed_from_center(body, center)

    r_clamped = min(max(r, pinch.r2), pinch.r1)
    if abs(r_clamped - r) > 1e-6:
        raise ValueError(
            f"inscribed radius {r} escapes [{pinch.r2}, {pinch.r1}]; "
            "the body is not pinched as claimed"
        )
    width = big_r - r
    quotient = big_r / r
    wb = width_bound(space, pinch).bound
    ob = outer_radius_bound(space, pinch, r_clamped)
    qb = quotient_bound(pinch).bound if space.kind == "flat" else None
    checks = BoundChecks(
        width=width <= wb + BOUND_SLACK,
        outer=big_r <= ob + BOUND_SLACK,
        quotient=None if qb is None else quotient <= qb + BOUND_SLACK,
    )
    res = ShellResult(center, r, big_r, width, quotient, wb, ob, qb, checks)
    # a non-finite shell is a numerical failure, not a bound violation
    if not all(math.isfinite(v) for v in (r, big_r, *res.margins.values())):
        raise ValueError(f"non-finite shell: r = {r}, R = {big_r}, margins {res.margins}")
    return res


# ---------------------------------------------------------------------------
# Blaschke rolling checks.

def rolling_check(body, pinch: PinchSpec, samples: int = 100, probes: int = 512,
                  tol: float = 1e-9) -> bool:
    """Sampled rolling test: the tangent ball of radius r2 fits inside, the
    body fits inside the tangent ball of radius r1, at each sampled
    boundary point.  Containment is probed on a grid of boundary points
    (probes per ball)."""
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


def _batch_worker(args):
    kappa1, kappa2, seed, modes = args
    pinch = PinchSpec.from_curvatures(SpaceCurvature.flat(), kappa1, kappa2)
    body = random_pinched_curve(pinch, seed=seed, modes=modes)
    res = check_bounds(body, pinch)
    return _record_from_result(res, seed, pinch)


def verify_batch(pinch: PinchSpec, seeds, modes: int = 8, jobs: int = 1):
    """Run check_bounds on the seeded random-body family; records sorted by seed."""
    tasks = [(pinch.kappa1, pinch.kappa2, int(s), modes) for s in seeds]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = math.ceil(len(tasks) / jobs)  # one equal share per worker
            records = list(pool.map(_batch_worker, tasks, chunksize=chunk))
    else:
        records = [_batch_worker(t) for t in tasks]
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
