"""Shell radii of stacks of flat support-function bodies.

A stack holds K bodies (`bodies.TrigStack`, or an `ArcSupportCurve` as a
stack of one) and every stage runs on all of them at once; an arc body
takes only its center from here.  The support grid THETA_GRID is
defined here, with the solvers it serves.  The inscribed-ball
(Chebyshev) center solves the concave maximin

    maximize over o of  min over t of  h(t) - <o, u(t)>,

here in two steps.  The linear maximin over the 2048 support directions
is solved exactly by a primal simplex on its 3-row dual, one body at a
time with its basis in scalars, and certified by primal and dual
feasibility of the final basis.  Its rows of positive dual weight, an
antipodal pair or a spanning triple, seed one joint Newton per body on
the contacts' optimality conditions, in the center, radius, weights and
contact angles together, also in scalars.  Weak duality certifies the
result to 1e-12 (max|h| + |o|) if the grid scan finds every branch of
the gap.  A body whose certificate fails runs exchange rounds alone:
each solves the LP again with rows at the exact angles of its contacts
and of the gap minima at its center, and reruns the Newton from that
LP's active rows and the least gap minimum.  A ball about the LP center needs no Newton.  The
circumscribed radius Newton-polishes the largest grid distances from
the center, using the exact derivatives of the boundary along its
normal angle.

Every grid scan (the gap minima here, the largest distances, and the
curvature radius range in `bodies`) polishes only the grid extrema that
a bound on the second derivative lets reach the grid's extreme between
two grid points (`_reach`); no other can win.  The gap minima on the
branches of converged contacts are not polished again: the contacts
are their minima.

Per-body arrays have one row per body of the stack, a set of bodies is
an index array `ks` into it, and per-point arrays carry `body`, the
stack index of each point's body.  The LP and the contact Newton run
body by body, and every batched operation acts on one body or one point
at a time (per-body matrix products, per-point jets, and Newton points
that freeze on their own step), so a body's results do not depend on
the other bodies of its stack.  A failure on one body raises
`_BodyError`, which carries its index.
"""

from __future__ import annotations

import math

import numpy as np

from ._optim import grid_extrema, refine_critical_points

GRID_N = 2048  # support directions of the grid scans and the LP


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


THETA_GRID = _read_only(np.arange(GRID_N) * (2.0 * math.pi / GRID_N))[0]
# cos t, sin t and the unit normals on THETA_GRID
_COS, _SIN = _read_only(np.cos(THETA_GRID), np.sin(THETA_GRID))
_U_GRID = _read_only(np.stack([_COS, _SIN], axis=-1))[0]
# the maximin LP's rows [u, 1] on THETA_GRID, and cos t and sin t as Python floats
_GRID_ROWS = (_read_only(np.column_stack([_U_GRID, np.ones(GRID_N)]))[0],
              _COS.tolist(), _SIN.tolist())


class _BodyError(ValueError):
    """A solver failure on one body of a stack; `body` is its index in the stack."""

    def __init__(self, body, message):
        super().__init__(message)
        self.body = int(body)


_GRID_STEP = 2.0 * math.pi / GRID_N
_ROUND_ULPS = 16  # rounding of a grid value, in ulps of its body's scale


def _norms(o):
    return np.hypot(o[:, 0], o[:, 1])


def _gap_grid(stack, centers, ks):
    """The support gaps f = h - <o, u> on THETA_GRID of the bodies ks, one row each."""
    o = centers[ks]
    return stack.grid[0][ks] - (_COS * o[:, :1] + _SIN * o[:, 1:])


_BALL_TOL = 1e-13  # a gap flat to this (max |gap| + |o|) is a ball about its center


def _gap_range(f_grid, o):
    """(least, scale, ball) per row of gaps at the centers o.

    scale = max |gap| + |o| sizes the gaps' rounding, and ball marks the
    rows flat to _BALL_TOL of it: bodies that are balls about their centers.
    """
    low, high = f_grid.min(axis=1), f_grid.max(axis=1)
    scale = np.maximum(high, -low) + _norms(o)
    return low, scale, high - low <= _BALL_TOL * scale


def _refine_gap(stack, body, thetas, centers, halfwidth):
    """Newton-refined critical points of the gaps next to thetas, and the jet at the points.

    f'' = rho - f, so one jet call gives both derivatives.
    """
    at = stack.jet(body, centers[body])

    def derivs(t, sel):
        f, f_prime, rho = at(t, sel)[:3]
        return f_prime, rho - f

    return refine_critical_points(derivs, thetas, halfwidth), at


def _reach(l2, scale):
    """How far a function with |f''| <= l2 can pass its nearer grid value between grid points.

    On a grid interval f >= min(f_j, f_j+1) - l2 d^2 / 8 for the grid
    step d, and f <= max(f_j, f_j+1) + l2 d^2 / 8; _ROUND_ULPS ulps of
    scale (per body) cover the rounding of the grid values.
    """
    return l2 * (_GRID_STEP * _GRID_STEP / 8.0) + _ROUND_ULPS * np.finfo(float).eps * scale


def _support_gap_minima(stack, centers, ks=None, held=None):
    """Local minima of the support gaps at the centers (one row per body) that can be the least.

    For the bodies ks (all by default) returns (gmin, body, thetas,
    values): per body of ks the least gap value found, and its candidate
    minima in grid order, grouped by body: the grid local minima within
    `_reach` of the body's least grid gap, for the bound `gap_bounds` on
    |f''|; no other grid interval reaches below that value.  Each is
    Newton-refined, but for one at a grid point next to a held contact
    (lists body, thetas, values of points where the contact Newton already
    made f' vanish), which takes the contact's angle and value; a branch
    has its grid minimum at one of the two grid points around its
    minimum.  A refined value replaces its grid value only where it is no
    larger.  On a ball about its center (`_gap_range`) the gap is flat and
    f'' ~ 0 gives Newton nothing to refine, so its grid minima at the
    least grid value stand unrefined.
    """
    ks = np.arange(len(stack)) if ks is None else np.asarray(ks)
    o = centers[ks]
    f_grid = _gap_grid(stack, centers, ks)
    low, scale, ball = _gap_range(f_grid, o)
    reach = np.where(ball, 0.0, _reach(stack.gap_bounds(ks, o)[2], scale))
    row, j = grid_extrema(f_grid, low + reach, np.full(ks.size, math.inf))
    thetas, values = THETA_GRID[j], f_grid[row, j]
    refine = ~ball[row]
    if held:
        spot = {}  # (row in ks, grid index) of the two grid points around each contact
        row_of = dict(zip(ks.tolist(), range(ks.size)))
        for c, (k, a) in enumerate(zip(*held[:2])):
            i = math.floor(a / _GRID_STEP)
            spot[row_of[k], i % GRID_N] = spot[row_of[k], (i + 1) % GRID_N] = c
        for i, key in enumerate(zip(row.tolist(), j.tolist())):
            c = spot.get(key)
            if c is not None:
                refine[i] = False
                if held[2][c] <= values[i]:
                    thetas[i], values[i] = held[1][c], held[2][c]
    idx = np.flatnonzero(refine)
    if idx.size:
        t_ref, at = _refine_gap(stack, ks[row[idx]], thetas[idx], centers, _GRID_STEP)
        v_ref = at(t_ref)[0]
        better = v_ref <= values[idx]
        thetas[idx[better]], values[idx[better]] = t_ref[better], v_ref[better]
    np.minimum.at(low, row, values)
    return low, ks[row], thetas, values


_LP_TOL = 1e-13  # feasibility tolerance of the maximin LP, relative to max |h| + |o|
_LP_PIVOT_TOL = 1e-12  # smallest basis coefficient the ratio test may pivot on
_LP_BLAND_AFTER = 3  # consecutive degenerate pivots before Bland's rule takes over


def _maximin_lp(a_dirs, b_vals):
    """max t s.t. <o, u_j> + t <= h_kj for every row k of b_vals; returns (o, t, basis, lam).

    One LP per body: b_vals is (K, n), and o (K, 2), t (K,), the basis
    rows (K, 3) and their weights lam (K, 3) come back per body.  Primal
    simplex on the dual  min h.lam  s.t.  sum lam_j u_j = 0, sum lam_j =
    1, lam >= 0, whose basis is three rows: (o, t) makes them tight and
    lam_B are their weights.  Rows 0, n//3 and 2n//3 of an evenly spaced
    direction grid positively span the plane, so they start dual
    feasible.  Each pivot brings in the most violated row (a Remez
    exchange) and drops the basis row picked by the ratio test on lam_B;
    during a run of degenerate pivots Bland's rule (lowest index first)
    takes over, so a stall cannot cycle.  A body is done when every row
    holds to _LP_TOL (max |h| + |o|), relative to the size of the
    rounding in the slacks, whatever the scale of the body, with lam_B >=
    0: primal and dual feasibility certify that t is the maximum.  The
    basis rows count as tight, so their rounding residue never picks one
    of them to enter again.  The bodies are solved one after another
    (`_lp_body`), so a body's result does not depend on its stack.
    Raises ValueError (naming the body) on non-finite data, a start basis
    that does not span, or a pivot count above the number of rows.
    """
    h = np.asarray(b_vals, float)
    rows, xs, ys = _lp_rows(a_dirs)
    n = h.shape[1]
    finite = np.isfinite(h).all(axis=1) & bool(np.isfinite(rows).all())
    if not finite.all():
        raise _BodyError(np.argmin(finite), "support maximin LP: non-finite support values")
    start = [0, n // 3, 2 * n // 3]
    cof, det = _basis_cofactors(xs, ys, start)
    if not abs(det) > 1e-12:
        raise _BodyError(0, "support maximin LP: singular start basis (rows 0, n//3, 2n//3)")
    if min(c[2] / det for c in cof) < 0.0:
        raise _BodyError(0, "support maximin LP: the start rows 0, n//3, 2n//3 "
                            "do not positively span the plane")
    n_bodies = h.shape[0]
    o, t = np.empty((n_bodies, 2)), np.empty(n_bodies)
    basis, lam = np.empty((n_bodies, 3), int), np.empty((n_bodies, 3))
    for k, size in enumerate(np.abs(h).max(axis=1).tolist()):
        o[k], t[k], basis[k], lam[k] = _lp_body(k, rows, xs, ys, h[k], size, start)
    return o, t, basis, lam


def _lp_rows(a_dirs):
    """The LP's rows [u_j, 1] as an (n, 3) array, and the u_j's coordinates as two lists."""
    if a_dirs is _U_GRID:
        return _GRID_ROWS
    a = np.asarray(a_dirs, float)
    return np.column_stack([a, np.ones(len(a))]), a[:, 0].tolist(), a[:, 1].tolist()


def _basis_cofactors(xs, ys, basis):
    """Cofactor rows C_i and determinant of the basis matrix, rows (x_j, y_j, 1) for j in basis.

    The inverse's column i is C_i / det, so with the basis rows tight
    (o, t) = sum_i h_i C_i / det, the weights are lam_i = C_i[2] / det,
    and a row r = (x, y, 1) is sum_i w_i rows[basis[i]] for w_i = <r, C_i> / det.
    """
    (ax, bx, cx), (ay, by, cy) = [xs[j] for j in basis], [ys[j] for j in basis]
    cof = ((by - cy, cx - bx, bx * cy - by * cx),
           (cy - ay, ax - cx, ay * cx - ax * cy),
           (ay - by, bx - ax, ax * by - ay * bx))
    return cof, ax * cof[0][0] + ay * cof[0][1] + cof[0][2]


def _lp_body(k, rows, xs, ys, hk, size, start):
    """`_maximin_lp` for body k of data hk, from the start basis: ((o_x, o_y), t, basis, lam).

    The basis, its inverse and the ratio test are scalars; a pivot's only
    array work is the slack h - rows @ (o, t) over the n rows and its argmin.
    """
    n = len(xs)
    basis, stall = list(start), 0
    for _ in range(n):
        cof, det = _basis_cofactors(xs, ys, basis)
        inv = 1.0 / det if det != 0.0 else math.nan
        h0, h1, h2 = (hk.item(j) for j in basis)
        c0, c1, c2 = cof
        x0 = (c0[0] * h0 + c1[0] * h1 + c2[0] * h2) * inv
        x1 = (c0[1] * h0 + c1[1] * h1 + c2[1] * h2) * inv
        x2 = (c0[2] * h0 + c1[2] * h1 + c2[2] * h2) * inv
        lam = [c0[2] * inv, c1[2] * inv, c2[2] * inv]
        slack = hk - rows @ (x0, x1, x2)
        tol = _LP_TOL * (size + math.hypot(x0, x1))
        enter = int(slack.argmin())
        if enter in basis:
            # the basis rows are tight by construction: their rounding residue
            # must not let one of them enter again, which cycles on dense grids
            slack[basis] = 0.0
            enter = int(slack.argmin())
        if not slack.item(enter) < -tol:
            if min(lam) < -_LP_TOL:
                raise _BodyError(k, "support maximin LP: a basis weight went negative")
            return (x0, x1), x2, basis, lam
        bland = stall >= _LP_BLAND_AFTER
        if bland:
            slack[basis] = 0.0
            enter = int(np.argmax(slack < -tol))
        x, y = xs[enter], ys[enter]  # the row is sum_i w_i rows[basis[i]]
        ratio = []
        for c, lam_i in zip(cof, lam):
            w = (x * c[0] + y * c[1] + c[2]) * inv
            ratio.append(max(lam_i, 0.0) / w if w > _LP_PIVOT_TOL else math.inf)
        step = min(ratio)
        if not math.isfinite(step):
            raise _BodyError(k, "support maximin LP: no basis row can leave (unbounded dual)")
        if bland:
            leave = min((i for i in range(3) if ratio[i] <= step), key=basis.__getitem__)
        else:
            leave = ratio.index(step)
        stall = stall + 1 if step <= _LP_TOL else 0
        basis[leave] = enter
    raise _BodyError(k, f"support maximin LP: no optimum after {n} pivots")


_NEWTON_ITERS = 8  # contact Newton steps; the corpus converges in at most four
_NEWTON_STEP_TOL = 1e-15  # a center step and slopes below this (max |h| + |o|) have converged
_ACTIVE_WEIGHT = 1e-9  # LP weights above this mark the active contacts
_CERT_TOL = 1e-12  # accepted certificate gap, relative to max |h| + |o|
_EXCHANGE_ROUNDS = 4  # exchange rounds after the first certificate fails
_SAME_BRANCH = math.sin(0.5 * 1.01 * _GRID_STEP)  # seeds closer than a grid step merge


def _active_rows(thetas, lam):
    """The rows of LP weight above _ACTIVE_WEIGHT, as lists (thetas, lam): the Newton's seeds."""
    active = lam > _ACTIVE_WEIGHT
    return thetas[active].tolist(), lam[active].tolist()


def _merge_branches(thetas, lam):
    """The seeds, each within a grid step (modulo 2 pi) of an earlier one merged into it.

    Such seeds lie on one branch of the gap (the grid resolves no finer),
    so the earlier one keeps its angle and takes the sum of the weights.
    """
    out_t, out_lam = [], []
    for a, w in zip(thetas, lam):
        for i, b in enumerate(out_t):
            if abs(math.sin(0.5 * (a - b))) <= _SAME_BRANCH:
                out_lam[i] += w
                break
        else:
            out_t.append(a)
            out_lam.append(w)
    return out_t, out_lam


def _contact_newton(stack, k, thetas, lam, o, t, size):
    """Joint Newton on (o, t, lam, theta) for body k: the optimality conditions of its contacts.

    With the gap f = h - <o, u>, the conditions are f(theta_i) = t,
    f'(theta_i) = 0, sum lam_i u_i = 0 and sum lam_i = 1.  The seeds
    (thetas, lam) merge by branch (`_merge_branches`), and the first three
    branches stay; o = (o_x, o_y), t and size = max |h| are the body's.
    The contact angles move with the center in the same step: linearizing
    f'(theta_i) = 0 gives d theta_i = (<u_perp_i, do> - f'_i) / f''_i, and
    eliminating it leaves the Jacobian rows [-u_i, -1, 0], [sum lam_i
    u_perp_i u_perp_i^T / f''_i, 0, U^T] and [0, 0, 1^T], for a ridge pair
    and a triple alike, with sum lam_i u_perp_i f'_i / f''_i moved to the
    right-hand side (the f'_i d theta_i term of the contact rows is second
    order, and dropped).  So a step takes one jet evaluation of the
    contacts, and the rest (`_kkt_step`) is arithmetic on Python floats.
    The Newton stops after a step whose center step and contact slopes
    |f'_i| are all below _NEWTON_STEP_TOL (size + |o|), or after
    _NEWTON_ITERS steps.  Returns ((o_x, o_y), thetas, lam, converged),
    where converged tells the step test from the cap, or None where the
    body fails: with fewer than two contacts, a contact without curvature,
    or a singular or non-finite step.
    """
    thetas, lam = (a[:3] for a in _merge_branches(thetas, lam))
    if len(thetas) < 2:
        return None
    at = stack.jet(np.full(len(thetas), k))  # h, h' and rho at the contacts
    ox, oy = o
    try:
        for _ in range(_NEWTON_ITERS):
            h, h_prime, rho = at(np.array(thetas))[:3].tolist()
            cos, sin = [math.cos(a) for a in thetas], [math.sin(a) for a in thetas]
            f = [a - (ox * c + oy * s) for a, c, s in zip(h, cos, sin)]
            f_prime = [a + (ox * s - oy * c) for a, c, s in zip(h_prime, cos, sin)]
            curv = [a - b for a, b in zip(rho, f)]
            if not all(c > 0.0 for c in curv):  # NaN fails too
                return None
            do_x, do_y, dt, d_lam = _kkt_step(cos, sin, lam, curv, f_prime, [a - t for a in f])
            ox, oy, t = ox + do_x, oy + do_y, t + dt
            lam = [a + b for a, b in zip(lam, d_lam)]
            thetas = [a + (c * do_y - s * do_x - g) / q
                      for a, c, s, g, q in zip(thetas, cos, sin, f_prime, curv)]
            if not math.isfinite(ox + oy + t + sum(lam) + sum(thetas)):
                return None
            step = max(math.hypot(do_x, do_y), max(abs(g) for g in f_prime))
            if step <= _NEWTON_STEP_TOL * (size + math.hypot(ox, oy)):
                return (ox, oy), thetas, lam, True
    except ZeroDivisionError:  # a singular step
        return None
    return (ox, oy), thetas, lam, False


def _kkt_step(cos, sin, lam, curv, f_prime, res_f):
    """The contact Newton step (do_x, do_y, dt, dlam) of `_contact_newton`, in Python floats.

    The contacts u_i = (cos_i, sin_i) have weights lam_i, curvatures
    f''_i, slopes f'_i and residuals res_f_i = f_i - t.  With w_i = lam_i
    / f''_i, A = sum_i w_i u_perp_i u_perp_i^T for u_perp = (-sin, cos),
    res_u = sum_i lam_i u_i - w_i f'_i u_perp_i and res_s = sum lam_i - 1,
    the Jacobian's rows give u_i.do + dt = res_f_i, A do + U^T dlam =
    -res_u and 1^T dlam = -res_s.  For a triple B = [U 1] is square, with
    the cofactor rows C_i of `_basis_cofactors`: B (do, dt) = res_f gives
    (do, dt) = sum_i res_f_i C_i / det, then B^T dlam = -(res_u + A do,
    res_s) gives dlam_i = -<C_i, (res_u + A do, res_s)> / det.  For a
    pair d = u_1 - u_2 leaves the symmetric [[A, d], [d^T, 0]] (do,
    dlam_1) = (res_s u_2 - res_u, res_f_1 - res_f_2), solved by its
    adjugate, and dt, dlam_2 follow.  A singular step raises
    ZeroDivisionError.
    """
    w = [a / b for a, b in zip(lam, curv)]
    w_sin, w_cos = [a * b for a, b in zip(w, sin)], [a * b for a, b in zip(w, cos)]
    w_f = [a * b for a, b in zip(w, f_prime)]
    a_xx = sum(a * b for a, b in zip(w_sin, sin))
    a_xy = -sum(a * b for a, b in zip(w_sin, cos))
    a_yy = sum(a * b for a, b in zip(w_cos, cos))
    res_x = sum(a * c + g * s for a, c, s, g in zip(lam, cos, sin, w_f))
    res_y = sum(a * s - g * c for a, c, s, g in zip(lam, cos, sin, w_f))
    res_s = sum(lam) - 1.0
    if len(cos) == 3:
        cof, det = _basis_cofactors(cos, sin, (0, 1, 2))
        inv = 1.0 / det
        do_x, do_y, dt = (sum(c[i] * r for c, r in zip(cof, res_f)) * inv for i in range(3))
        q_x = res_x + a_xx * do_x + a_xy * do_y
        q_y = res_y + a_xy * do_x + a_yy * do_y
        return do_x, do_y, dt, [-(c[0] * q_x + c[1] * q_y + c[2] * res_s) * inv for c in cof]
    d_x, d_y = cos[0] - cos[1], sin[0] - sin[1]
    b_x, b_y = res_s * cos[1] - res_x, res_s * sin[1] - res_y
    e = res_f[0] - res_f[1]
    # the adjugate of the symmetric [[a_xx, a_xy, d_x], [a_xy, a_yy, d_y], [d_x, d_y, 0]]
    s_xx, s_xy, s_yy = -d_y * d_y, d_x * d_y, -d_x * d_x
    s_xd, s_yd, s_dd = a_xy * d_y - a_yy * d_x, a_xy * d_x - a_xx * d_y, a_xx * a_yy - a_xy * a_xy
    inv = 1.0 / (a_xx * s_xx + a_xy * s_xy + d_x * s_xd)
    do_x = (s_xx * b_x + s_xy * b_y + s_xd * e) * inv
    do_y = (s_xy * b_x + s_yy * b_y + s_yd * e) * inv
    d_lam1 = (s_xd * b_x + s_yd * b_y + s_dd * e) * inv
    dt = res_f[0] - (cos[0] * do_x + sin[0] * do_y)
    return do_x, do_y, dt, [d_lam1, -res_s - d_lam1]


def _certify(stack, ks, seeds, o, t, size, h_max):
    """One certificate round for the bodies ks; seeds[i] = (thetas, lam) seeds body ks[i].

    The contact Newton runs body by body.  Where it runs through with
    weights >= 0, the body's center o (updated in place) and contacts
    move to its solution, and for w = lam / sum lam weak duality bounds
    the optimum by sum w_i h(theta_i) + |sum w_i u_i| h_max; elsewhere the
    bound is inf and the seeds stay its contacts.  The jet that gives
    h(theta_i) gives the contacts' gap values too, and the contacts of a
    Newton that met its step test go to `_support_gap_minima` with them,
    so their branches are not polished again.  Returns (lower, gap,
    contacts, minima): per body of ks the least gap minimum at o and the
    bound minus it, then per body of ks its contacts (thetas, lam), and
    the gap minima at o as (body, thetas, values).
    """
    contacts, body, thetas, lam, held = [], [], [], [], []
    for k, seed in zip(ks.tolist(), seeds):
        out = _contact_newton(stack, k, *seed, o[k].tolist(), t.item(k), size.item(k))
        if out is None or min(out[2]) < 0.0:
            contacts.append(seed)
            continue
        o[k], th, lm, converged = out
        contacts.append((th, lm))
        body += [k] * len(th)
        thetas += th
        lam += lm
        held += [converged] * len(th)
    n = len(stack)
    upper = np.full(n, math.inf)
    minima_held = None
    if body:
        body, thetas, lam, held = np.array(body), np.array(thetas), np.array(lam), np.array(held)
        w = lam / np.bincount(body, lam, n)[body]
        h = stack.jet(body)(thetas)[0]
        cos, sin = np.cos(thetas), np.sin(thetas)
        drift = np.hypot(np.bincount(body, w * cos, n), np.bincount(body, w * sin, n))
        good = np.bincount(body, minlength=n) > 0
        upper[good] = (np.bincount(body, w * h, n) + drift * h_max)[good]
        values = h - (o[body, 0] * cos + o[body, 1] * sin)
        minima_held = tuple(a[held].tolist() for a in (body, thetas, values))
    lower, *minima = _support_gap_minima(stack, o, ks, minima_held)
    return lower, upper[ks] - lower, contacts, minima


def _exchange_lp(stack, k, held, minima, start, o, t, size):
    """An exchange round's LP for body k, and the seeds it gives the Newton.

    The maximin LP runs over the grid rows plus one row at each other
    exact angle of the held contacts and of the gap minima (body, thetas,
    values of body k), and o[k] and t[k] move to its solution.  start,
    the grid LP's final basis, is dual feasible here too, so the simplex
    (`_lp_body`) starts from it.  The seeds are the LP's rows of weight
    above _ACTIVE_WEIGHT, then the least gap minimum (the most violated
    point) and then the basis rows of weight 0, all tight at the LP's
    solution: an antipodal pair holds its LP value anywhere along its
    ridge, so a third contact that the smooth optimum needs may sit in
    the basis at weight 0, or not at all.  The Newton keeps the first
    three branches.
    """
    # a row twice, or a grid row again, could swap with its twin forever
    # where rounding in an ill-conditioned basis leaves the twin violated
    angles = np.array([a for a in sorted({*held[0], *minima[1].tolist()})
                       if THETA_GRID[round(a / _GRID_STEP) % GRID_N] != a])
    cos, sin = np.cos(angles), np.sin(angles)
    rows = np.vstack([_GRID_ROWS[0], np.column_stack([cos, sin, np.ones(angles.size)])])
    h = np.concatenate([stack.grid[0][k], stack.jet(np.full(angles.size, k))(angles)[0]])
    o[k], t[k], basis, lam = _lp_body(k, rows, _GRID_ROWS[1] + cos.tolist(),
                                      _GRID_ROWS[2] + sin.tolist(), h, size.item(k),
                                      start.tolist())
    rows_t = np.concatenate([THETA_GRID, angles])[basis].tolist()
    active = [w > _ACTIVE_WEIGHT for w in lam]
    thetas = [a for a, on in zip(rows_t, active) if on]
    weights = [w for w, on in zip(lam, active) if on]
    if minima[1].size:
        thetas.append(minima[1][np.argmin(minima[2])].item())
        weights.append(0.0)
    thetas += [a for a, on in zip(rows_t, active) if not on]
    weights += [w for w, on in zip(lam, active) if not on]
    return thetas, weights


def _inscribed_support(stack):
    """Chebyshev centers of a stack of support-function bodies: (o, r, gap) per body.

    The LP's rows of weight above _ACTIVE_WEIGHT seed `_contact_newton`;
    a ball about the LP's center skips it, and its gap (t minus the least
    grid gap) compares grid values only.  r is the least gap minimum at o
    (`_support_gap_minima`).  With h_max = max_j h_j / cos(pi/n) >= |o*|
    (every boundary point has a grid normal within pi/n of its direction)
    `_certify` bounds the optimum from above.  The certificate, gap <=
    _CERT_TOL (size + |o|) with size = max |h| on the grid, assumes that
    the grid sees every branch of the gap: a dip under about rho (pi/n)^2
    / 2 between grid points is missed.  A body whose first certificate
    fails, or whose weights go negative, runs exchange rounds alone: each
    solves the LP again over the grid rows plus rows at the exact angles
    of its contacts and of the gap minima at o, and reruns the Newton from
    that LP's center, its active rows and the least gap minimum
    (`_exchange_lp`), so a contact can leave as well as enter; after
    _EXCHANGE_ROUNDS a ValueError names the gap.
    """
    h_grid = stack.grid[0]
    o, t, basis, lam = _maximin_lp(_U_GRID, h_grid)
    r, _, ball = _gap_range(_gap_grid(stack, o, np.arange(len(stack))), o)  # ball: all touch
    gap = t - r
    size = np.abs(h_grid).max(axis=1)
    h_max = h_grid.max(axis=1) / math.cos(math.pi / GRID_N)
    ks = np.flatnonzero(~ball)
    if not ks.size:
        return o, r, gap
    seeds = [_active_rows(THETA_GRID[basis[k]], lam[k]) for k in ks]
    r[ks], gap[ks], contacts, minima = _certify(stack, ks, seeds, o, t, size, h_max)
    tol = _CERT_TOL * (size + _norms(o))
    for i in np.flatnonzero(~(gap[ks] <= tol[ks])):
        k, held, alone = ks[i], contacts[i], ks[i:i + 1]
        for _ in range(_EXCHANGE_ROUNDS):
            mine = tuple(a[minima[0] == k] for a in minima)
            seed = _exchange_lp(stack, k, held, mine, basis[k], o, t, size)
            lower, g, (held,), minima = _certify(stack, alone, [seed], o, t, size, h_max)
            r[k], gap[k] = lower[0], g[0]
            if gap[k] <= _CERT_TOL * (size[k] + _norms(o[alone])[0]):
                break
        else:
            raise _BodyError(k, f"inscribed ball: certificate gap {gap[k]:.3g} above "
                                f"{_CERT_TOL:g} (max|h| + |o|) after {_EXCHANGE_ROUNDS} "
                                "exchange rounds")
    return o, r, gap


def _circumscribed(stack, centers):
    """Largest distance from each body's center (one row per body) to its boundary.

    With the gap f = h - <o, u>, the boundary point of normal angle t is
    b - o = f u + f' u_perp, so D = |b - o|^2 = f^2 + f'^2, and since b' =
    rho u_perp, D' = 2 rho f' and D'' = 2 (rho' f' + rho (rho - f)), which
    the bounds on |f|, |f'|, |rho| and |rho'| bound (`gap_bounds`,
    `rho_bounds`).  The grid's local maxima of D within `_reach` of its
    largest grid value are Newton-polished along the normal angle with
    these exact derivatives; no other can pass that value.
    """
    rows = np.arange(len(stack))
    f = _gap_grid(stack, centers, rows)
    f_prime = stack.grid[1] + _SIN * centers[:, :1] - _COS * centers[:, 1:]
    d2 = f * f + f_prime * f_prime
    (f_bar, f1_bar, _), (rho_bar, rho1_bar, _) = stack.gap_bounds(rows, centers), stack.rho_bounds
    l2 = 2.0 * (f1_bar * rho1_bar + (rho_bar + f_bar) * rho_bar)
    scale = (np.abs(stack.grid[0]).max(axis=1) + _norms(centers)) ** 2
    d2_max = d2.max(axis=1)
    row, j = grid_extrema(d2, np.full(len(stack), -math.inf), d2_max - _reach(l2, scale))
    at = stack.jet(row, centers[row])

    def derivs(t, sel):
        f, f_prime, rho, rho_prime = at(t, sel)[:4]
        return rho * f_prime, rho_prime * f_prime + rho * (rho - f)

    # the distance is flat to second order at a maximum: a 1e-10 step leaves
    # an error far below rounding, and near-round bodies (D'' ~ 0) stop there
    # instead of stepping through rounding noise
    t = refine_critical_points(derivs, THETA_GRID[j], _GRID_STEP, tol=1e-10)
    f, f_prime = at(t)[:2]
    np.maximum.at(d2_max, row, f * f + f_prime * f_prime)
    return np.sqrt(d2_max)
