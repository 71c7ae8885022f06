"""Empirical verification of the shell bounds on concrete convex bodies.

The shell of a body is centered at its inscribed-ball (Chebyshev) center.
For planar support-function bodies the center solves the concave maximin

    maximize over o of  min over t of  h(t) - <o, u(t)>,

here in two steps.  The linear maximin over the 2048 support directions
is solved exactly by a primal simplex on its 3-row dual, and certified
by primal and dual feasibility of the final basis.  Its rows of positive
dual weight, an antipodal pair or a spanning triple, seed one Newton on
the contacts' optimality conditions, certified by weak duality to 1e-12
(max|h| + |o|) if the grid scan finds every branch of the gap; a failed
certificate reseeds the Newton with the gap minima at the center.  A
ball about the LP center needs no Newton.  The circumscribed radius
Newton-polishes the largest grid distances from the center, using the
exact derivatives of the boundary along its normal angle.  Rotationally
symmetric bodies restrict the center to the rotation axis, where the
maximum lies at the foot of an arc center (closed form) or where two
arcs' distance branches cross (Brent's bracketed root finder).  All 1-D
searches come from `_optim`, so the module needs numpy alone.

Evaluations on the fixed direction grids (the 2048-direction support
grid, and the rolling check's default 100 samples and 512 probes) read
the shared trigonometric tables of `bodies`, so a body costs no cos or
sin on them.  The flat rolling check's outer test takes the square root
of the largest squared distance: sqrt is monotone and correctly rounded,
so the verdict is the distance test's bit for bit, without a
(samples, probes, 2) array and its norm.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._optim import (
    bracketed_root,
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


def _support_gap_minima(body, o):
    """Newton-refined local minima of the support gap at center o.

    Returns (global_min, thetas, values), values ascending and thetas
    deduplicated to one representative per branch.  On a ball about o
    (`_is_ball`) the gap is flat and f'' ~ 0 gives Newton nothing to
    refine, so its unrefined grid minimum is the only branch.
    """
    f, fp, fpp = _gap_fns(body, o)
    f_grid = f(THETA_GRID)
    i_min = int(np.argmin(f_grid))
    if _is_ball(f_grid, o):
        return float(f_grid[i_min]), THETA_GRID[i_min:i_min + 1], f_grid[i_min:i_min + 1]
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
    return gmin, thetas[order], values[order]


def _is_ball(f_grid, o) -> bool:
    """Whether the gap f_grid at o is flat to its rounding, 1e-13 (max |gap| + |o|): a ball."""
    scale = float(np.abs(f_grid).max()) + float(np.linalg.norm(o))
    return float(f_grid.max() - f_grid.min()) <= 1e-13 * scale


_LP_TOL = 1e-13  # feasibility tolerance of the maximin LP, relative to max |h| + |o|
_LP_PIVOT_TOL = 1e-12  # smallest basis coefficient the ratio test may pivot on
_LP_BLAND_AFTER = 3  # consecutive degenerate pivots before Bland's rule takes over


def _maximin_lp(a_dirs, b_vals):
    """max t s.t. <o, u_j> + t <= h_j; returns (o, t, basis, lam).

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
            return x[:2], float(x[2]), np.array(basis), lam
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


_NEWTON_ITERS = 8  # contact Newton steps; the corpus converges in at most four
_NEWTON_STEP_TOL = 1e-15  # a center step below this (max |h| + |o|) has converged
_ACTIVE_WEIGHT = 1e-9  # LP weights above this mark the active contacts
_CERT_TOL = 1e-12  # accepted certificate gap, relative to max |h| + |o|
_EXCHANGE_ROUNDS = 4  # exchange rounds after the first certificate fails


def _contact_newton(body, o, t, thetas, lam, size):
    """Newton on (o, t, lam) for h(theta_i) - <o, u_i> = t, sum lam_i u_i = 0, sum lam_i = 1.

    theta_i(o) is the exact gap minimum next to each seed, refined at every
    step; seeds on one branch merge, and the three heaviest contacts stay.
    With d theta_i / d o = u_perp_i / f''_i the Jacobian rows are [-u_i, -1,
    0], [sum lam_i u_perp_i u_perp_i^T / f''_i, 0, U^T] and [0, 0, 1^T], for
    a ridge pair and a triple alike.  Stops after a center step below
    _NEWTON_STEP_TOL (size + |o|), contacts refined at the final center.
    Returns (o, thetas, lam), or None for fewer than two contacts, a
    contact without curvature, or a singular step.
    """
    f, fp, fpp = _gap_fns(body, o)
    thetas = refine_critical_points(fp, fpp, thetas, 0.05)
    same = np.abs(np.remainder(thetas[:, None] - thetas + math.pi, 2.0 * math.pi) - math.pi) <= 1e-6
    first = same.argmax(axis=1)  # the first seed on each one's branch
    keep = first == np.arange(thetas.size)
    thetas, lam = thetas[keep], np.bincount(first, lam, thetas.size)[keep]
    heaviest = np.argsort(-lam, kind="stable")[:3]  # an added fourth contact leaves
    thetas, lam, m = thetas[heaviest], lam[heaviest], heaviest.size
    if m < 2:
        return None
    jac = np.zeros((m + 3, m + 3))
    jac[:m, 2], jac[m + 2, 3:] = -1.0, 1.0
    for _ in range(_NEWTON_ITERS):
        curv = np.asarray(fpp(thetas), float)
        if not curv.min() > 0.0:  # NaN fails too
            return None
        u = unit_vectors(thetas)
        u_perp = np.column_stack([-u[:, 1], u[:, 0]])
        jac[:m, :2], jac[m:m + 2, 3:] = -u, u.T
        jac[m:m + 2, :2] = (u_perp.T * (lam / curv)) @ u_perp
        res = np.concatenate([np.asarray(f(thetas), float) - t, u.T @ lam, [lam.sum() - 1.0]])
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        o, t, lam = o + delta[:2], t + delta[2], lam + delta[3:]
        f, fp, fpp = _gap_fns(body, o)
        thetas = refine_critical_points(fp, fpp, thetas, 0.05)
        if math.hypot(delta[0], delta[1]) <= _NEWTON_STEP_TOL * (size + float(np.linalg.norm(o))):
            break
    return o, thetas, lam


def _inscribed_support(body, grid_offset=0.0):
    """Chebyshev center of a support-function body: (o, r, gap).

    The LP's rows of weight above _ACTIVE_WEIGHT seed `_contact_newton`;
    a ball about the LP's center skips it, and its gap (t minus the least
    grid gap) compares grid values only.  r is the least Newton-refined
    grid local minimum of the gap at o.  For w = lam / sum lam >= 0 weak
    duality bounds the optimum by sum w_i h(theta_i) + |sum w_i u_i| h_max,
    as |o*| <= h_max = max_j h_j / cos(pi/n): every boundary point has a
    grid normal within pi/n of its direction.  The certificate, gap <=
    _CERT_TOL (size + |o|) with size = max |h| on the grid, assumes that
    the grid sees every branch of the gap: a dip under about
    rho (pi/n)^2 / 2 between grid points is missed.  If it fails, or a
    weight goes negative, an exchange round reruns the Newton from the
    contacts plus the gap minima at o (weight 0, the heaviest three
    kept); after _EXCHANGE_ROUNDS a ValueError names the gap.  grid_offset
    rotates the grid and must not change the result.
    """
    thetas = THETA_GRID + grid_offset if grid_offset else THETA_GRID
    h_grid = np.asarray(body.h(thetas), float)
    o, t, basis, lam = _maximin_lp(unit_vectors(thetas), h_grid)
    cos_t, sin_t = cos_sin(thetas)
    f_grid = h_grid - (cos_t * o[0] + sin_t * o[1])
    if _is_ball(f_grid, o):  # every direction touches
        return o, float(f_grid.min()), t - float(f_grid.min())
    size = float(np.abs(h_grid).max())
    h_max = float(h_grid.max()) / math.cos(math.pi / thetas.size)
    act = lam > _ACTIVE_WEIGHT
    contacts, weights, cuts, gap = thetas[basis[act]], lam[act], np.empty(0), math.inf
    for _ in range(_EXCHANGE_ROUNDS + 1):
        # an exact antipodal pair holds its ridge value anywhere along the
        # ridge, so a third contact below it enters only as a seed
        solved = _contact_newton(body, o, t, np.concatenate([contacts, cuts]),
                                 np.concatenate([weights, np.zeros(cuts.size)]), size)
        upper = math.inf
        if solved is not None and solved[2].min() >= 0.0:
            o, contacts, weights = solved
            w = weights / weights.sum()
            drift = float(np.linalg.norm(w @ unit_vectors(contacts)))
            upper = float(w @ body.h(contacts)) + drift * h_max
        lower, cuts, _ = _support_gap_minima(body, o)
        gap = upper - lower
        if gap <= _CERT_TOL * (size + float(np.linalg.norm(o))):
            return o, lower, gap
    raise ValueError(f"inscribed ball: certificate gap {gap:.3g} above "
                     f"{_CERT_TOL:g} (max|h| + |o|) after {_EXCHANGE_ROUNDS} exchange rounds")


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

    Flat support bodies solve the concave maximin over the plane, the
    radius certified by weak duality as `_inscribed_support` states;
    revolution bodies maximize along the rotation axis over closed-form
    candidates: the feet of the arc centers and the crossings of two
    arcs' distance branches.
    """
    if isinstance(body, RevolutionBody):
        return _inscribed_revolution(body)
    return _inscribed_support(body)[:2]


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
    space = pinch.space
    if body.space != space:
        raise ValueError(f"the body lies in {body.space.kind} space (c = {body.space.c}), "
                         f"the pinching in {space.kind} space (c = {space.c})")
    _pinch_precondition(body, pinch)
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
    (probes per ball), to tol * r1, so a scaled body keeps its verdict."""
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
