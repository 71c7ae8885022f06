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
antipodal pair or a spanning triple, seed one joint Newton on the
contacts' optimality conditions, in the center, radius, weights and
contact angles together, certified by weak duality to 1e-12 (max|h| +
|o|) if the grid scan finds every branch of the gap; a body whose
certificate fails reseeds the Newton alone with the gap minima at its
center.  A ball about the LP center needs no Newton.  The circumscribed
radius Newton-polishes the largest grid distances from the center, using
the exact derivatives of the boundary along its normal angle.

Per-body arrays have one row per body of the stack, a set of bodies is
an index array `ks` into it, and per-point arrays carry `body`, the
stack index of each point's body.  The LP runs body by body, and every
batched operation acts on one body or one point at a time (per-body
matrix products, per-point jets, per-row closed-form Newton steps, and
Newton points that freeze on their own step), so a body's results do not
depend on the other bodies of its stack.  A failure on one body raises
`_BodyError`, which carries its index.
"""

from __future__ import annotations

import math

import numpy as np

from ._optim import local_extrema_mask, refine_critical_points

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


def _norms(o):
    return np.hypot(o[:, 0], o[:, 1])


def _gap_grid(stack, centers, ks):
    """The support gaps f = h - <o, u> on THETA_GRID of the bodies ks, one row each."""
    o = centers[ks]
    return stack.grid[0][ks] - (_COS * o[:, :1] + _SIN * o[:, 1:])


def _is_ball(f_grid, centers):
    """Per row: whether the gap is flat to its rounding, 1e-13 (max |gap| + |o|): a ball."""
    scale = np.abs(f_grid).max(axis=1) + _norms(centers)
    return np.ptp(f_grid, axis=1) <= 1e-13 * scale


def _refine_gap(stack, body, thetas, centers, halfwidth):
    """Newton-refined critical points of the gaps next to thetas, and the jet at the points.

    f'' = rho - f, so one jet call gives both derivatives.
    """
    at = stack.jet(body, centers[body])

    def derivs(t, sel):
        f, f_prime, rho = at(t, sel)[:3]
        return f_prime, rho - f

    return refine_critical_points(derivs, thetas, halfwidth), at


def _support_gap_minima(stack, centers, ks=None):
    """Newton-refined local minima of the support gaps at the centers (one row per body).

    For the bodies ks (all by default) returns (gmin, body, thetas,
    values): per body of ks the least gap value found, and the refined
    grid local minima in grid order, grouped by body; several of them may
    lie on one branch of the gap.  On a ball about its center (`_is_ball`)
    the gap is flat and f'' ~ 0 gives Newton nothing to refine, so its
    unrefined grid minimum is the only one.
    """
    ks = np.arange(len(stack)) if ks is None else np.asarray(ks)
    f_grid = _gap_grid(stack, centers, ks)
    ball = _is_ball(f_grid, centers[ks])
    min_mask, _ = local_extrema_mask(f_grid)
    balls = np.flatnonzero(ball)
    j_ball = np.argmin(f_grid[balls], axis=1)
    min_mask[balls] = False
    min_mask[balls, j_ball] = True
    row, j = np.nonzero(min_mask)
    thetas, values = THETA_GRID[j], f_grid[row, j]
    refine = np.flatnonzero(~ball[row])
    if refine.size:
        t_ref, at = _refine_gap(stack, ks[row[refine]], thetas[refine], centers, _GRID_STEP)
        v_ref = at(t_ref)[0]
        better = v_ref <= values[refine]
        thetas[refine] = np.where(better, t_ref, thetas[refine])
        values[refine] = np.where(better, v_ref, values[refine])
    f_grid[row, j] = values  # a refined minimum does not exceed its grid value
    return f_grid.min(axis=1), ks[row], thetas, values


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


def _contact_newton(stack, body, thetas, lam, o, t, size):
    """Joint Newton on (o, t, lam, theta): the optimality conditions of the contacts theta_i.

    With the gap f = h - <o, u>, the conditions are f(theta_i) = t,
    f'(theta_i) = 0, sum lam_i u_i = 0 and sum lam_i = 1.  The seeds
    (body, thetas, lam) are points grouped by body; o, t and size are per
    body of the stack.  A body's seeds within one grid step
    of each other lie on one branch of the gap (the grid resolves no
    finer), so they merge, and at most three contacts, the heaviest,
    stay.  The contact angles move with the center in the same step:
    linearizing f'(theta_i) = 0 gives d theta_i = (<u_perp_i, do> -
    f'_i) / f''_i, and eliminating it leaves the Jacobian rows [-u_i, -1,
    0], [sum lam_i u_perp_i u_perp_i^T / f''_i, 0, U^T] and [0, 0, 1^T],
    for a ridge pair and a triple alike, with sum lam_i u_perp_i f'_i /
    f''_i moved to the right-hand side (the f'_i d theta_i term of the
    contact rows is second order, and dropped).  So a step takes one jet
    evaluation, and the bodies with two and with three contacts each take
    one batched step (`_kkt_step`) per iteration.  A body stops after a
    step whose center step and contact slopes |f'_i| are all below
    _NEWTON_STEP_TOL (size + |o|).  Returns (solved, o, contacts): solved
    marks the bodies whose Newton ran through, o has their new centers,
    and contacts = (body, thetas, lam) lists their contacts.  A body fails
    with fewer than two contacts, a contact without curvature, or a
    singular step.
    """
    o = o.copy()
    # seeds within a grid step of each other, modulo 2 pi, on one body
    same = (np.abs(np.sin(0.5 * (thetas[:, None] - thetas))) <= _SAME_BRANCH) & (
        body[:, None] == body)
    first = same.argmax(axis=1)  # the first seed on each one's branch
    keep = first == np.arange(thetas.size)
    body, thetas, lam = body[keep], thetas[keep], np.bincount(first, lam, thetas.size)[keep]
    count = np.bincount(body, np.ones(body.size), len(stack))
    if count.max() > 3:  # exchange seeds, never in the first round: the heaviest three stay
        order = np.argsort(-lam, kind="stable")
        order = order[np.argsort(body[order], kind="stable")]
        rank = np.arange(order.size) - np.searchsorted(body[order], body[order])
        order = order[rank < 3]
        body, thetas, lam = body[order], thetas[order], lam[order]
        count = np.bincount(body, np.ones(body.size), len(stack))
    solved = np.zeros(len(stack), bool)
    for m in (2, 3):
        pts = count[body] == m
        ks = body[pts][::m]
        if ks.size:
            th, lm = thetas[pts].reshape(-1, m), lam[pts].reshape(-1, m)
            solved[ks] = _newton_group(stack, ks, th, lm, o, t[ks].copy(), size[ks])
            thetas[pts], lam[pts] = th.ravel(), lm.ravel()
    mine = solved[body]
    return solved, o, (body[mine], thetas[mine], lam[mine])


def _newton_group(stack, ks, thetas, lam, o, t, size):
    """`_contact_newton`'s steps for the bodies ks with m contacts each, in place.

    thetas and lam are (len(ks), m), o is per body of the stack, t and
    size are per body of ks.  Each contact is a pair of (cos, sin) arrays,
    one row per body, so a step is a few dozen array operations whatever
    the number of bodies.  Returns the mask of the bodies that did not fail.
    """
    g, m = thetas.shape
    at = stack.jet(np.repeat(ks, m))  # h, h' and rho at the contacts
    points = np.arange(g * m).reshape(g, m)
    ok = np.ones(g, bool)
    live = np.arange(g)
    for _ in range(_NEWTON_ITERS):
        if not live.size:
            break
        k, th = ks[live], thetas[live]
        h, h_prime, rho = (a.reshape(-1, m) for a in at(th.ravel(), points[live].ravel())[:3])
        cos, sin = np.cos(th), np.sin(th)
        ox, oy = o[k, :1], o[k, 1:]
        f = h - (ox * cos + oy * sin)  # the gap and its derivatives at the contacts
        f_prime = h_prime + (ox * sin - oy * cos)
        curv = rho - f
        good = curv.min(axis=1) > 0.0  # NaN fails too
        if not good.all():
            ok[live[~good]] = False
            live, k, th, cos, sin, f, f_prime, curv = (
                a[good] for a in (live, k, th, cos, sin, f, f_prime, curv))
        lm = lam[live]
        w = lm / curv
        w_sin, w_cos, w_f = w * sin, w * cos, w * f_prime
        # A = sum_i w_i u_perp_i u_perp_i^T with u_perp = (-sin, cos), and the
        # residual sum_i lam_i u_i - w_i f'_i u_perp_i
        a_xx, a_xy, a_yy = (w_sin * sin).sum(axis=1), -(w_sin * cos).sum(axis=1), (
            w_cos * cos).sum(axis=1)
        res_x = (lm * cos + w_f * sin).sum(axis=1)
        res_y = (lm * sin - w_f * cos).sum(axis=1)
        do_x, do_y, dt, d_lam = _kkt_step(cos, sin, a_xx, a_xy, a_yy, res_x, res_y,
                                          f - t[live, None], lm.sum(axis=1) - 1.0)
        fine = np.isfinite(dt)
        if not fine.all():
            ok[live[~fine]] = False
            live, k, th, cos, sin, f_prime, curv, do_x, do_y, dt, d_lam = (
                a[fine] for a in (live, k, th, cos, sin, f_prime, curv, do_x, do_y, dt, d_lam))
        o[k, 0] += do_x
        o[k, 1] += do_y
        t[live] += dt
        lam[live] += d_lam
        thetas[live] = th + (cos * do_y[:, None] - sin * do_x[:, None] - f_prime) / curv
        step = np.maximum(np.hypot(do_x, do_y), np.abs(f_prime).max(axis=1))
        live = live[~(step <= _NEWTON_STEP_TOL * (size[live] + _norms(o[k])))]
    return ok


_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])  # a triple's other two contacts


def _kkt_step(cos, sin, a_xx, a_xy, a_yy, res_x, res_y, res_f, res_s):
    """The contact Newton step (do_x, do_y, dt, dlam) per body, NaN where it is singular.

    The contacts u_i = (cos, sin) are one row per body.  The Jacobian's
    rows give u_i.do + dt = res_f_i, A do + U^T dlam = -res_u and 1^T dlam
    = -res_s.  For a triple B = [U 1] is square, with the cofactor rows
    C_i of `_basis_cofactors`: B (do, dt) = res_f gives (do, dt) = sum_i
    res_f_i C_i / det, then B^T dlam = -(res_u + A do, res_s) gives dlam_i
    = -<C_i, (res_u + A do, res_s)> / det.  For a pair d = u_1 - u_2
    leaves the symmetric [[A, d], [d^T, 0]] (do, dlam_1) = (res_s u_2 -
    res_u, res_f_1 - res_f_2), solved by its adjugate, and dt, dlam_2 follow.
    """
    if cos.shape[1] == 3:
        x_next, x_after = cos[:, _NEXT], cos[:, _AFTER]
        y_next, y_after = sin[:, _NEXT], sin[:, _AFTER]
        c_x, c_y, c_1 = y_next - y_after, x_after - x_next, x_next * y_after - y_next * x_after
        inv = 1.0 / _nonzero(c_1.sum(axis=1))
        do_x, do_y, dt = ((c * res_f).sum(axis=1) * inv for c in (c_x, c_y, c_1))
        q_x = res_x + a_xx * do_x + a_xy * do_y
        q_y = res_y + a_xy * do_x + a_yy * do_y
        d_lam = -(c_x * q_x[:, None] + c_y * q_y[:, None] + c_1 * res_s[:, None]) * inv[:, None]
        return do_x, do_y, dt, d_lam
    d_x, d_y = cos[:, 0] - cos[:, 1], sin[:, 0] - sin[:, 1]
    b_x, b_y = res_s * cos[:, 1] - res_x, res_s * sin[:, 1] - res_y
    e = res_f[:, 0] - res_f[:, 1]
    # the adjugate of the symmetric [[a_xx, a_xy, d_x], [a_xy, a_yy, d_y], [d_x, d_y, 0]]
    s_xx, s_xy, s_yy = -d_y * d_y, d_x * d_y, -d_x * d_x
    s_xd, s_yd, s_dd = a_xy * d_y - a_yy * d_x, a_xy * d_x - a_xx * d_y, a_xx * a_yy - a_xy * a_xy
    inv = 1.0 / _nonzero(a_xx * s_xx + a_xy * s_xy + d_x * s_xd)
    do_x = (s_xx * b_x + s_xy * b_y + s_xd * e) * inv
    do_y = (s_xy * b_x + s_yy * b_y + s_yd * e) * inv
    d_lam1 = (s_xd * b_x + s_yd * b_y + s_dd * e) * inv
    dt = res_f[:, 0] - (cos[:, 0] * do_x + sin[:, 0] * do_y)
    return do_x, do_y, dt, np.column_stack([d_lam1, -res_s - d_lam1])


def _nonzero(det):
    """det with NaN where it is 0: a singular step comes out NaN, without a warning."""
    return np.where(det != 0.0, det, np.nan)


def _certify(stack, ks, contacts, cuts, o, t, size, h_max):
    """One certificate round for the bodies ks.

    The contact Newton runs from the contacts, then the cuts (weight 0),
    as points grouped by body: the first round has no cuts, and an
    exchange round has one body.  Where it runs through with weights >=
    0, the body's center o (updated in place) and contacts move to its
    solution, and for w = lam / sum lam weak duality bounds the optimum by
    sum w_i h(theta_i) + |sum w_i u_i| h_max; elsewhere the bound is inf.
    Returns (lower, gap, contacts, minima): per body of ks the least
    refined gap minimum at o and the bound minus it, then the contacts as
    (body, thetas, lam) and the gap minima at o as (body, thetas, values).
    """
    seeds = [np.concatenate(pair) for pair in zip(contacts, cuts)]
    solved, o_new, (body, thetas, lam) = _contact_newton(stack, *seeds, o, t, size)
    n = len(stack)
    good = solved & (np.bincount(body, np.minimum(lam, 0.0), n) == 0.0)  # no weight < 0
    upper = np.full(n, math.inf)
    if good.any():
        mine = good[body]
        body, thetas, lam = body[mine], thetas[mine], lam[mine]
        o[good] = o_new[good]
        w = lam / np.bincount(body, lam)[body]
        h = stack.jet(body)(thetas)[0]
        drift = np.hypot(np.bincount(body, w * np.cos(thetas), n),
                         np.bincount(body, w * np.sin(thetas), n))
        upper = np.where(good, np.bincount(body, w * h, n) + drift * h_max, math.inf)
        kept = ~good[contacts[0]]
        contacts = tuple(np.concatenate([a[kept], b])
                         for a, b in zip(contacts, (body, thetas, lam)))
    lower, *minima = _support_gap_minima(stack, o, ks)
    return lower, upper[ks] - lower, contacts, minima


def _inscribed_support(stack):
    """Chebyshev centers of a stack of support-function bodies: (o, r, gap) per body.

    The LP's rows of weight above _ACTIVE_WEIGHT seed `_contact_newton`;
    a ball about the LP's center skips it, and its gap (t minus the least
    grid gap) compares grid values only.  r is the least Newton-refined
    grid local minimum of the gap at o.  With h_max = max_j h_j /
    cos(pi/n) >= |o*| (every boundary point has a grid normal within pi/n
    of its direction) `_certify` bounds the optimum from above.  The
    certificate, gap <= _CERT_TOL (size + |o|) with size = max |h| on the
    grid, assumes that the grid sees every branch of the gap: a dip under
    about rho (pi/n)^2 / 2 between grid points is missed.  A body whose
    first certificate fails, or whose weights go negative, runs exchange
    rounds alone: each reruns the Newton from its contacts plus the gap
    minima at o, lowest first (weight 0, the heaviest three kept); after
    _EXCHANGE_ROUNDS a ValueError names the gap.
    """
    h_grid = stack.grid[0]
    o, t, basis, lam = _maximin_lp(_U_GRID, h_grid)
    every = np.arange(len(stack))
    f_grid = _gap_grid(stack, o, every)
    r = f_grid.min(axis=1)
    gap = t - r
    ball = _is_ball(f_grid, o)  # every direction touches
    size = np.abs(h_grid).max(axis=1)
    h_max = h_grid.max(axis=1) / math.cos(math.pi / GRID_N)
    ks = np.flatnonzero(~ball)
    if not ks.size:
        return o, r, gap
    body, col = np.nonzero((lam > _ACTIVE_WEIGHT) & ~ball[:, None])
    contacts = (body, THETA_GRID[basis[body, col]], lam[body, col])
    no_cuts = (np.empty(0, int), np.empty(0), np.empty(0))
    r[ks], gap[ks], contacts, minima = _certify(stack, ks, contacts, no_cuts, o, t, size, h_max)
    tol = _CERT_TOL * (size + _norms(o))
    for k in ks[~(gap[ks] <= tol[ks])]:
        alone = np.array([k])
        mine = contacts[0] == k
        contacts_k = tuple(a[mine] for a in contacts)
        for _ in range(_EXCHANGE_ROUNDS):
            body, thetas, values = (a[minima[0] == k] for a in minima)
            order = np.argsort(values, kind="stable")
            cuts = (body[order], thetas[order], np.zeros(order.size))
            lower, g, contacts_k, minima = _certify(stack, alone, contacts_k, cuts, o, t, size,
                                                    h_max)
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
    b - o = f u + f' u_perp, so |b - o|^2 = f^2 + f'^2.  The grid scan's
    four largest local maxima per body are Newton-polished, using the
    exact derivatives of F = |b - o|^2 / 2 along the normal angle, where
    b' = rho u_perp: F' = rho f' and F'' = rho' f' + rho (rho - f).
    """
    rows = np.arange(len(stack))
    f = _gap_grid(stack, centers, rows)
    f_prime = stack.grid[1] + _SIN * centers[:, :1] - _COS * centers[:, 1:]
    d2 = f * f + f_prime * f_prime
    _, max_mask = local_extrema_mask(d2)
    cand = np.where(max_mask, d2, -np.inf)
    top = np.empty((rows.size, 4), int)
    for i in range(4):
        top[:, i] = np.argmax(cand, axis=1)
        cand[rows, top[:, i]] = -np.inf
    valid = max_mask[rows[:, None], top]  # a body may have fewer than four maxima
    row, j = np.nonzero(valid)
    j = top[row, j]
    at = stack.jet(row, centers[row])

    def derivs(t, sel):
        f, f_prime, rho, rho_prime = at(t, sel)[:4]
        return rho * f_prime, rho_prime * f_prime + rho * (rho - f)

    # the distance is flat to second order at a maximum: a 1e-10 step leaves
    # an error far below rounding, and near-round bodies (F'' ~ 0) stop there
    # instead of stepping through rounding noise
    t = refine_critical_points(derivs, THETA_GRID[j], _GRID_STEP, tol=1e-10)
    f, f_prime = at(t)[:2]
    polished = np.full(valid.shape, -np.inf)
    polished[valid] = f * f + f_prime * f_prime
    return np.sqrt(np.maximum(d2.max(axis=1), polished.max(axis=1)))
