"""Shell radii of stacks of flat support-function bodies.

A stack holds K bodies (`bodies.TrigStack`, or an `ArcSupportCurve` as a
stack of one) and every stage runs on all of them at once.  The
inscribed-ball (Chebyshev) center solves the concave maximin

    maximize over o of  min over t of  h(t) - <o, u(t)>,

here in two steps.  The linear maximin over the 2048 support directions
is solved exactly by a primal simplex on its 3-row dual, and certified
by primal and dual feasibility of the final basis.  Its rows of positive
dual weight, an antipodal pair or a spanning triple, seed one Newton on
the contacts' optimality conditions, certified by weak duality to 1e-12
(max|h| + |o|) if the grid scan finds every branch of the gap; a body
whose certificate fails reseeds the Newton alone with the gap minima at
its center.  A ball about the LP center needs no Newton.  The
circumscribed radius Newton-polishes the largest grid distances from the
center, using the exact derivatives of the boundary along its normal
angle.

Per-body arrays have one row per body of the stack, a set of bodies is
an index array `ks` into it, and per-point arrays carry `body`, the
stack index of each point's body.  Every batched operation acts on one
body or one point at a time (per-body matrix products, per-point jets,
per-body 3 x 3 cofactor inverses, and Newton points that freeze on their
own step), so a body's results do not depend on the other bodies of its
stack.  A failure on one body raises `_BodyError`, which carries its index.
"""

from __future__ import annotations

import math

import numpy as np

from ._optim import local_extrema_mask, refine_critical_points
from .bodies import _COS, _SIN, _U_GRID, GRID_N, THETA_GRID


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
    of them to enter again.  The bodies pivot together, each with its own
    (3, 3) basis inverse (by cofactors), done flag and stall counter, and
    every product is per body.  Raises ValueError (naming the body) on
    non-finite data, a start basis that does not span, or a pivot count
    above the number of rows.
    """
    h = np.asarray(b_vals, float)
    n = h.shape[1]
    rows = np.column_stack([a_dirs, np.ones(n)])
    finite = np.isfinite(h).all(axis=1) & bool(np.isfinite(rows).all())
    if not finite.all():
        raise _BodyError(np.argmin(finite), "support maximin LP: non-finite support values")
    start = [0, n // 3, 2 * n // 3]
    m_inv, det = (a[0] for a in _inverse3(rows[start][None]))
    if not abs(det) > 1e-12:
        raise _BodyError(0, "support maximin LP: singular start basis (rows 0, n//3, 2n//3)")
    if m_inv[2].min() < 0.0:
        raise _BodyError(0, "support maximin LP: the start rows 0, n//3, 2n//3 "
                            "do not positively span the plane")
    n_bodies = h.shape[0]
    o, t = np.empty((n_bodies, 2)), np.empty(n_bodies)
    basis, lam_out = np.empty((n_bodies, 3), int), np.empty((n_bodies, 3))
    rows_t = np.ascontiguousarray(rows.T)
    # the live bodies' rows: stack index, data, basis, basis inverse, stall count
    live, hl, h_size = np.arange(n_bodies), h, np.abs(h).max(axis=1)
    bs, mi = np.tile(start, (n_bodies, 1)), np.tile(m_inv, (n_bodies, 1, 1))
    stall = np.zeros(n_bodies)
    for _ in range(n):
        at = np.arange(live.size)
        hb = hl[at[:, None], bs]
        # (o, t) with the basis rows tight, and the basis weights:
        # rows[basis].T @ lam = (0, 0, 1)
        x = np.matmul(mi, hb[:, :, None])[:, :, 0]
        lam = mi[:, 2]
        slack = hl - np.matmul(x[:, None, :], rows_t)[:, 0]
        # the basis rows are tight by construction: their rounding residue
        # must not let one of them enter again, which cycles on dense grids
        slack[at[:, None], bs] = 0.0
        tol = _LP_TOL * (h_size + _norms(x))
        enter = np.argmin(slack, axis=1)
        done = ~(slack[at, enter] < -tol)
        if done.any():
            if (lam[done].min(axis=1) < -_LP_TOL).any():
                raise _BodyError(live[done][np.argmin(lam[done].min(axis=1))],
                                 "support maximin LP: a basis weight went negative")
            fin = live[done]
            o[fin], t[fin], basis[fin], lam_out[fin] = x[done, :2], x[done, 2], bs[done], lam[done]
            if done.all():
                return o, t, basis, lam_out
            keep = ~done
            live, hl, h_size, bs, mi, stall, slack, tol, enter, lam = (
                a[keep] for a in (live, hl, h_size, bs, mi, stall, slack, tol, enter, lam))
            at = np.arange(live.size)
        bland = stall >= _LP_BLAND_AFTER
        if bland.any():
            enter[bland] = np.argmax(slack[bland] < -tol[bland, None], axis=1)
        r = rows[enter]  # rows[enter] = sum_i w_i rows[basis[i]]
        w = np.matmul(r[:, None, :], mi)[:, 0]
        pos = w > _LP_PIVOT_TOL
        ratio = np.where(pos, np.maximum(lam, 0.0) / np.where(pos, w, 1.0), np.inf)
        step = ratio.min(axis=1)
        if not np.isfinite(step).all():
            raise _BodyError(live[np.argmin(np.isfinite(step))],
                             "support maximin LP: no basis row can leave (unbounded dual)")
        leave = np.argmin(ratio, axis=1)
        if bland.any():
            lowest = np.where(ratio[bland] <= step[bland, None], bs[bland], n)
            leave[bland] = np.argmin(lowest, axis=1)
        stall = np.where(step <= _LP_TOL, stall + 1.0, 0.0)
        bs[at, leave] = enter
        mi = _inverse3(rows[bs])[0]
    raise _BodyError(live[0], f"support maximin LP: no optimum after {n} pivots")


_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _inverse3(m):
    """Inverses (NaN where singular) and determinants of 3 x 3 matrices (L, 3, 3), by cofactors.

    Not numpy's LAPACK inverse: its first call adds about 0.6 MB to the
    resident memory of a process, and the process that runs `verify`
    checks a share of the bodies itself.
    """
    p, q = m[:, _NEXT], m[:, _AFTER]
    # row i of the cofactors: m_i+1 x m_i+2
    cof = p[:, :, _NEXT] * q[:, :, _AFTER] - p[:, :, _AFTER] * q[:, :, _NEXT]
    det = (m[:, 0] * cof[:, 0]).sum(axis=-1)
    # in C order, which keeps the batched products that use it independent of the batch size
    cof = np.ascontiguousarray(cof.transpose(0, 2, 1))
    return cof / np.where(det != 0.0, det, np.nan)[:, None, None], det


_NEWTON_ITERS = 8  # contact Newton steps; the corpus converges in at most four
_NEWTON_STEP_TOL = 1e-15  # a center step below this (max |h| + |o|) has converged
_ACTIVE_WEIGHT = 1e-9  # LP weights above this mark the active contacts
_CERT_TOL = 1e-12  # accepted certificate gap, relative to max |h| + |o|
_EXCHANGE_ROUNDS = 4  # exchange rounds after the first certificate fails


def _contact_newton(stack, body, thetas, lam, o, t, size):
    """Newton on (o, t, lam) for h(theta_i) - <o, u_i> = t, sum lam_i u_i = 0, sum lam_i = 1.

    The seeds (body, thetas, lam) are points grouped by body; o, t and
    size are per body of the stack.  theta_i(o) is the exact gap minimum
    next to each seed, refined at every step; a body's seeds on one branch
    merge, and at most three contacts, the heaviest, stay.  With d theta_i
    / d o = u_perp_i / f''_i the Jacobian rows are [-u_i, -1, 0], [sum
    lam_i u_perp_i u_perp_i^T / f''_i, 0, U^T] and [0, 0, 1^T], for a
    ridge pair and a triple alike; the bodies with two and with three
    contacts each take one batched step (`_kkt_step`) per iteration.  A
    body stops after a center step below _NEWTON_STEP_TOL (size + |o|),
    contacts refined at the final center.  Returns (solved, o, contacts): solved marks the bodies whose
    Newton ran through, o has their new centers, and contacts = (body,
    thetas, lam) lists their contacts.  A body fails with fewer than two
    contacts, a contact without curvature, or a singular step.
    """
    o = o.copy()
    thetas, _ = _refine_gap(stack, body, thetas, o, 0.05)
    # seeds within 1e-6 of each other, modulo 2 pi, on one body
    same = (np.abs(np.sin(0.5 * (thetas[:, None] - thetas))) <= math.sin(0.5e-6)) & (
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
    size are per body of ks.  Returns the mask of the bodies that did not fail.
    """
    g, m = thetas.shape
    ok = np.ones(g, bool)
    live = np.arange(g)
    for _ in range(_NEWTON_ITERS):
        body = np.repeat(ks[live], m)
        f, _, rho = stack.jet(body, o[body])(thetas[live].ravel())[:3]
        f, curv = f.reshape(-1, m), (rho - f).reshape(-1, m)
        good = curv.min(axis=1) > 0.0  # NaN fails too
        ok[live[~good]] = False
        live, f, curv = live[good], f[good], curv[good]
        if not live.size:
            break
        th, lm = thetas[live], lam[live]
        u = np.stack([np.cos(th), np.sin(th)], axis=-1)
        u_perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        weighted = u_perp * (lm / curv)[..., None]
        a = (weighted[..., :, None] * u_perp[..., None, :]).sum(axis=1)
        delta, det = _kkt_step(u, a, f - t[live, None], (u * lm[..., None]).sum(axis=1),
                               lm.sum(axis=1) - 1.0)
        ok[live[det == 0.0]] = False
        live, delta = live[det != 0.0], delta[det != 0.0]
        k = ks[live]
        o[k] += delta[:, :2]
        t[live] += delta[:, 2]
        lam[live] += delta[:, 3:]
        body = np.repeat(k, m)
        thetas[live] = _refine_gap(stack, body, thetas[live].ravel(), o, 0.05)[0].reshape(-1, m)
        step = np.hypot(delta[:, 0], delta[:, 1])
        live = live[~(step <= _NEWTON_STEP_TOL * (size[live] + _norms(o[k])))]
    return ok


def _mv(m, v):
    """Products of 3 x 3 matrices and 3-vectors, one per row."""
    return (m * v[:, None, :]).sum(axis=-1)


def _kkt_step(u, a, res_f, res_u, res_s):
    """The contact Newton step (o, t, lam) per body, and the determinant it divides by.

    The Jacobian's rows give u_i.do + dt = res_f_i, A do + U^T dlam =
    -res_u and 1^T dlam = -res_s.  For a triple B = [U 1] is square: B
    (do, dt) = res_f, then B^T dlam = -(res_u + A do, res_s).  For a pair
    d = u_1 - u_2 leaves [[A, d], [d^T, 0]] (do, dlam_1) = (res_s u_2 -
    res_u, res_f_1 - res_f_2), and dt, dlam_2 follow.  The step is NaN
    where the determinant is 0.
    """
    if u.shape[1] == 3:
        inv, det = _inverse3(np.concatenate([u, np.ones(res_f.shape + (1,))], axis=-1))
        do_dt = _mv(inv, res_f)
        rhs = np.concatenate([res_u + (a * do_dt[:, None, :2]).sum(axis=-1), res_s[:, None]],
                             axis=1)
        d_lam = (inv * -rhs[:, :, None]).sum(axis=1)  # B^-T (-rhs)
        return np.concatenate([do_dt, d_lam], axis=1), det
    d = u[:, 0] - u[:, 1]
    m = np.zeros((len(u), 3, 3))
    m[:, :2, :2], m[:, :2, 2], m[:, 2, :2] = a, d, d
    inv, det = _inverse3(m)
    rhs = np.concatenate([res_s[:, None] * u[:, 1] - res_u, (res_f[:, 0] - res_f[:, 1])[:, None]],
                         axis=1)
    do_dl = _mv(inv, rhs)
    dt = res_f[:, 0] - (u[:, 0] * do_dl[:, :2]).sum(axis=1)
    return np.column_stack([do_dl[:, :2], dt, do_dl[:, 2], -res_s - do_dl[:, 2]]), det


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
