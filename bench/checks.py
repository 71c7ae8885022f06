"""Correctness checks of the benchmark, independent of the program's code.

Every reference value here is computed from the paper's closed forms in
mpmath at 50 digits, or from the body's own coefficients with numpy and
a linear program of the benchmark's own; nothing calls into curvshell.
Each check raises CheckError with a message naming the broken condition.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np
from scipy.optimize import linprog

mp.mp.dps = 50

SQRT2 = mp.sqrt(2)

# Slack of the "value lies below the paper's bound" checks.  The program's
# own flags allow 1e-7; the bodies checked here stay far inside that.
BOUND_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program failed an independent correctness check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def require_close(got: float, want, rel: float, what: str) -> None:
    """|got - want| <= rel * max(|want|, tiny), with want an mpf or float."""
    want = mp.mpf(want)
    err = abs(mp.mpf(got) - want)
    scale = max(abs(want), mp.mpf("1e-300"))
    require(err <= rel * scale, f"{what}: got {got!r}, reference {mp.nstr(want, 17)}, "
                                f"relative error {mp.nstr(err / scale, 3)} > {rel:g}")


def require_near(got: float, want, tol: float, what: str) -> None:
    """|got - want| <= tol (absolute)."""
    err = abs(mp.mpf(got) - mp.mpf(want))
    require(err <= tol, f"{what}: got {got!r}, reference {mp.nstr(mp.mpf(want), 17)}, "
                        f"error {mp.nstr(err, 3)} > {float(tol):g}")


# ---------------------------------------------------------------------------
# The paper's closed forms, in mpmath.  kind is "flat", "spherical" or
# "hyperbolic"; k = sqrt(|c|) (ignored in the plane).

def mp_radius(kind: str, k, kappa):
    """Geodesic radius of the circle of geodesic curvature kappa."""
    kappa = mp.mpf(kappa)
    if kind == "flat":
        return 1 / kappa
    k = mp.mpf(k)
    if kind == "spherical":
        return mp.pi / (2 * k) if kappa == 0 else mp.acot(kappa / k) / k
    return mp.acoth(kappa / k) / k


def mp_outer_radius(kind: str, k, r1, r2, r):
    """Sharp outer radius for inscribed radius r: r2 plus the leg d of the
    right triangle with leg r1 - r and hypotenuse r1 - r2."""
    r1, r2, r = mp.mpf(r1), mp.mpf(r2), mp.mpf(r)
    u, dd = r1 - r, r1 - r2
    if kind == "flat":
        return r2 + mp.sqrt(dd * dd - u * u)
    k = mp.mpf(k)
    if kind == "spherical":  # cos(k dd) = cos(k u) cos(k d)
        return r2 + mp.acos(mp.cos(k * dd) / mp.cos(k * u)) / k
    return r2 + mp.acosh(mp.cosh(k * dd) / mp.cosh(k * u)) / k  # cosh form


def mp_width_bound(kind: str, k, r1, r2):
    """Sharp bound on R - r: (sqrt 2 - 1)(r1 - r2) in the plane,
    (2/k) arccos sqrt(cos k dd) - dd on the sphere and
    (2/k) arccosh sqrt(cosh k dd) - dd in the hyperbolic plane."""
    dd = mp.mpf(r1) - mp.mpf(r2)
    if kind == "flat":
        return (SQRT2 - 1) * dd
    k = mp.mpf(k)
    if kind == "spherical":
        return 2 / k * mp.acos(mp.sqrt(mp.cos(k * dd))) - dd
    return 2 / k * mp.acosh(mp.sqrt(mp.cosh(k * dd))) - dd


def mp_quotient_bound(kappa1, kappa2):
    """Sharp bound on R / r in the plane, with t = kappa2 / kappa1."""
    t = mp.mpf(kappa2) / mp.mpf(kappa1)
    return (mp.sqrt(t) + SQRT2) / (1 / mp.sqrt(t) + SQRT2)


def mp_stability_width_constant(kind: str, k, kappa):
    """First-order width constant C of width < C eps for (kappa, (1 + eps) kappa)."""
    kappa = mp.mpf(kappa)
    c = {"flat": 0, "spherical": 1, "hyperbolic": -1}[kind] * mp.mpf(k) ** 2
    return kappa * (SQRT2 - 1) / (kappa * kappa + c)


# ---------------------------------------------------------------------------
# Flat random bodies, from their curvature-radius coefficients.

def trig_support(h0, rho_cos, rho_sin, translation, thetas):
    """(h, h', rho) of the body whose curvature radius is
    h0 + sum_{n>=2} a_n cos(nt) + b_n sin(nt), translated by translation."""
    thetas = np.asarray(thetas, float)
    rho_cos = np.asarray(rho_cos, float)
    rho_sin = np.asarray(rho_sin, float)
    ns = np.arange(2, 2 + rho_cos.size, dtype=float)
    arg = np.multiply.outer(thetas, ns)
    ca, sa = np.cos(arg), np.sin(arg)
    hc, hs = rho_cos / (1.0 - ns * ns), rho_sin / (1.0 - ns * ns)
    ct, st = np.cos(thetas), np.sin(thetas)
    tx, ty = float(translation[0]), float(translation[1])
    h = h0 + ca @ hc + sa @ hs + tx * ct + ty * st
    hp = -sa @ (ns * hc) + ca @ (ns * hs) - tx * st + ty * ct
    rho = h0 + ca @ rho_cos + sa @ rho_sin
    return h, hp, rho


def dense_thetas(n: int) -> np.ndarray:
    return np.arange(n) * (2.0 * math.pi / n)


def boundary_points(h, hp, thetas):
    """x(t) = h u(t) + h'(t) u'(t)."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.stack([h * c - hp * s, h * s + hp * c], axis=1)


def check_rho_band(rho, r2: float, r1: float) -> None:
    """The sampled curvature radius stays inside the pinching band [r2, r1]."""
    lo, hi = float(np.min(rho)), float(np.max(rho))
    require(lo >= r2 and hi <= r1,
            f"curvature radius range [{lo!r}, {hi!r}] leaves the band [{r2!r}, {r1!r}]")


def check_ball_fits(r: float, center, h, thetas, tol: float = 1e-10) -> None:
    """The ball of radius r at center lies inside every sampled support half-plane."""
    gap = h - (np.cos(thetas) * center[0] + np.sin(thetas) * center[1])
    g = float(gap.min())
    require(r <= g + tol, f"inscribed ball does not fit: r = {r!r} > min support gap {g!r}")


def lp_inradius(h, thetas) -> float:
    """max t s.t. <o, u(theta_j)> + t <= h_j: the inradius of the polygon of
    sampled support lines, an upper bound on the true inradius."""
    rows = np.column_stack([np.cos(thetas), np.sin(thetas), np.ones(thetas.size)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=rows, b_ub=h, bounds=[(None, None)] * 3,
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    require(res.status == 0, f"reference LP failed (status {res.status}: {res.message})")
    return float(-res.fun)


def lp_grid_error(r1: float, n: int) -> float:
    """How far the LP over n equally spaced directions can overshoot the
    inradius: the support gap f has f'' = rho - f <= r1, so between two
    directions it dips at most r1 (pi / n)^2 / 2 below the sampled values."""
    return r1 * (math.pi / n) ** 2 / 2.0


def check_ball_largest(r: float, r_lp: float, grid_error: float, tol: float = 1e-10) -> None:
    """r is the largest inradius: between the LP bound less its grid error and the LP bound."""
    require(r <= r_lp + tol, f"r = {r!r} exceeds the LP upper bound {r_lp!r}")
    require(r >= r_lp - grid_error - tol,
            f"r = {r!r} is below the LP inradius {r_lp!r} by {r_lp - r:.3g}, "
            f"more than the grid error {grid_error:.3g}")


def check_outer_radius(big_r: float, sampled_max: float, tol: float = 1e-8) -> None:
    """R is at least the densely sampled boundary maximum and within tol of it."""
    require(big_r >= sampled_max - 1e-12,
            f"R = {big_r!r} is below the sampled boundary maximum {sampled_max!r}")
    require(big_r - sampled_max <= tol,
            f"R = {big_r!r} exceeds the sampled boundary maximum {sampled_max!r} "
            f"by {big_r - sampled_max:.3g} > {tol:g}")


def check_flat_shell_bounds(r: float, big_r: float, kappa1: float, kappa2: float) -> None:
    """Width, outer radius and quotient lie below the paper's flat bounds."""
    r1, r2 = mp_radius("flat", 0, kappa1), mp_radius("flat", 0, kappa2)
    width_b = mp_width_bound("flat", 0, r1, r2)
    outer_b = mp_outer_radius("flat", 0, r1, r2, min(max(mp.mpf(r), r2), r1))
    quot_b = mp_quotient_bound(kappa1, kappa2)
    broken = []
    if big_r - r > width_b + BOUND_TOL:
        broken.append(f"width {big_r - r!r} exceeds the width bound {mp.nstr(width_b, 17)}")
    if big_r > outer_b + BOUND_TOL:
        broken.append(f"R = {big_r!r} exceeds the outer-radius bound {mp.nstr(outer_b, 17)} "
                      f"at r = {r!r}")
    if big_r / r > quot_b + BOUND_TOL:
        broken.append(f"quotient {big_r / r!r} exceeds the quotient bound {mp.nstr(quot_b, 17)}")
    require(not broken, "; ".join(broken))


def check_flat_body(h0, rho_cos, rho_sin, translation, kappa1: float, kappa2: float,
                    center, r: float, big_r: float, n_dense: int = 1 << 16,
                    n_lp: int | None = None) -> None:
    """All checks of one flat random body against its measured shell.

    n_lp, when given, also solves the reference LP on that many directions.
    """
    r1, r2 = float(mp_radius("flat", 0, kappa1)), float(mp_radius("flat", 0, kappa2))
    th = dense_thetas(n_dense)
    h, hp, rho = trig_support(h0, rho_cos, rho_sin, translation, th)
    check_rho_band(rho, r2, r1)
    check_ball_fits(r, center, h, th)
    pts = boundary_points(h, hp, th)
    check_outer_radius(big_r, float(np.sqrt(((pts - np.asarray(center)) ** 2).sum(axis=1)).max()))
    check_flat_shell_bounds(r, big_r, kappa1, kappa2)
    if n_lp:
        th_lp = dense_thetas(n_lp)
        h_lp, _, _ = trig_support(h0, rho_cos, rho_sin, translation, th_lp)
        check_ball_largest(r, lp_inradius(h_lp, th_lp), lp_grid_error(r1, n_lp))


# ---------------------------------------------------------------------------
# Rounded spindles.

def check_spindle(kind: str, k, kappa1: float, kappa2: float, r_tilde: float,
                  r: float, big_r: float, scan_r: float, scan_big_r: float) -> None:
    """The measured radii equal r_tilde and the closed-form R(r_tilde).

    r and big_r come from the inscribed-ball and circumscribed solvers,
    scan_r and scan_big_r from the distance scan about the symmetry center.
    """
    r1, r2 = mp_radius(kind, k, kappa1), mp_radius(kind, k, kappa2)
    want_r = min(max(mp.mpf(r_tilde), r2), r1)
    want_big_r = mp_outer_radius(kind, k, r1, r2, want_r)
    require_near(r, want_r, 1e-9, f"{kind} spindle inscribed radius")
    require_near(big_r, want_big_r, 1e-7, f"{kind} spindle outer radius")
    require_near(scan_r, want_r, 1e-9, f"{kind} spindle scanned inner radius")
    require_near(scan_big_r, want_big_r, 1e-9, f"{kind} spindle scanned outer radius")


def family_resolution(widths) -> float:
    """How far the true maximum of a smooth width profile can sit above the
    largest sampled value: |w''| h^2 / 8 with the curvature taken from the
    second differences next to the sampled maximum, doubled for safety."""
    w = np.asarray(widths, float)
    j = int(np.argmax(w))
    second = [abs(w[i + 1] - 2.0 * w[i] + w[i - 1])
              for i in (j - 1, j, j + 1) if 1 <= i <= w.size - 2]
    return 2.0 * max(second, default=0.0) / 8.0


def check_family_width(kind: str, k, kappa1: float, kappa2: float, widths) -> None:
    """The family's largest width reaches the width bound within the grid's
    resolution, and no member exceeds it."""
    r1, r2 = mp_radius(kind, k, kappa1), mp_radius(kind, k, kappa2)
    bound = mp_width_bound(kind, k, r1, r2)
    top = float(np.max(widths))
    require(top <= bound + BOUND_TOL,
            f"{kind} family width {top!r} exceeds the width bound {mp.nstr(bound, 17)}")
    res = family_resolution(widths)
    require(bound - top <= res + BOUND_TOL,
            f"{kind} family's largest width {top!r} stays {mp.nstr(bound - top, 3)} below "
            f"the width bound {mp.nstr(bound, 17)}, more than the grid resolution {res:.3g}")


def check_profile_csv(text: str, r_in: float, r_out: float, samples: int,
                      tol: float = 1e-9) -> None:
    """Every exported point lies in the shell [r_in, r_out] about the center
    (the export preserves distance from the symmetry center)."""
    lines = text.splitlines()
    require(lines[0] == "x,y,kappa", f"profile CSV header is {lines[0]!r}")
    require(len(lines) == samples + 1, f"profile CSV has {len(lines) - 1} rows, not {samples}")
    xy = np.array([[float(v) for v in ln.split(",")[:2]] for ln in lines[1:]])
    d = np.sqrt((xy ** 2).sum(axis=1))
    require(d.min() >= r_in - tol and d.max() <= r_out + tol,
            f"profile points at distances [{d.min()!r}, {d.max()!r}] leave the shell "
            f"[{r_in!r}, {r_out!r}]")


def check_profile_svg(text: str) -> None:
    """A complete SVG drawing with the body and the two shell circles."""
    text = text.strip()
    require(text.startswith("<svg") and text.endswith("</svg>"), "SVG is not one <svg> element")
    require(text.count("stroke-dasharray") == 2, "SVG lacks the two dashed shell circles")


# ---------------------------------------------------------------------------
# The bound calculators.

def check_bound_set(kind: str, k, kappa1: float, kappa2: float, r1: float, r2: float,
                    width: float, maximizer_r: float, attained_r: float,
                    radii, outers, quotient, stability_width: float,
                    stability_quotient, rel: float = 1e-12) -> None:
    """Every value of one pinching's bound set matches mpmath to rel.

    The radii r1, r2 are checked against the curvatures; every bound is then
    evaluated at the program's own r1, r2 and r, so that the check measures
    the bound formulas and not the rounding of their inputs.  quotient is
    (bound, maximizer_r, attained_R) or None outside the plane.
    """
    require_close(r1, mp_radius(kind, k, kappa1), rel, f"{kind} r1")
    require_close(r2, mp_radius(kind, k, kappa2), rel, f"{kind} r2")
    wb = mp_width_bound(kind, k, r1, r2)
    require_close(width, wb, rel, f"{kind} width bound")
    if r1 > r2:
        # The program's maximizer attains the bound, and attained_R is R(maximizer).
        # The profile R(r) - r is a difference of numbers of size r1, so no
        # double r resolves its flat top better than a few ulps of r1.
        require(r2 <= maximizer_r <= r1, f"{kind} width maximizer {maximizer_r!r} outside [r2, r1]")
        at_max = mp_outer_radius(kind, k, r1, r2, maximizer_r)
        require_near(at_max - mp.mpf(maximizer_r), wb, rel * abs(wb) + 4 * 2.0**-52 * r1,
                     f"{kind} width at the maximizer")
        require_close(attained_r, at_max, rel, f"{kind} attained R")
    for r, got in zip(radii, outers):
        require_close(got, mp_outer_radius(kind, k, r1, r2, r), rel,
                      f"{kind} outer-radius bound at r = {r!r}")
    require_close(stability_width, mp_stability_width_constant(kind, k, kappa1), rel,
                  f"{kind} stability width constant")
    check_stability_line(width, stability_width, kappa1, kappa2, rel)
    if quotient is not None:
        qb, q_r, q_big_r = quotient
        want = mp_quotient_bound(kappa1, kappa2)
        require_close(qb, want, rel, "flat quotient bound")
        require_close(q_big_r, mp.mpf(qb) * mp.mpf(q_r), rel, "flat quotient attained R")
        require_close(mp_outer_radius("flat", 0, r1, r2, q_r) / mp.mpf(q_r), want, rel,
                      "flat quotient at the maximizer")
        require_close(stability_quotient, SQRT2 - 1, rel, "flat stability quotient constant")


def check_stability_line(width: float, constant: float, kappa1: float, kappa2: float,
                         rel: float = 1e-12) -> None:
    """The width bound stays below the stability constant times
    eps = kappa2 / kappa1 - 1 (to rounding)."""
    line = mp.mpf(constant) * (mp.mpf(kappa2) / mp.mpf(kappa1) - 1)
    require(width <= line * (1 + rel),
            f"width bound {width!r} is not below the stability constant times eps = "
            f"{mp.nstr(line, 17)}")


# ---------------------------------------------------------------------------
# Batch reports written by `curvshell verify`.

def check_report(lines, seeds) -> None:
    """One JSON-lines record per seed, sorted by seed."""
    got = [json.loads(ln)["seed"] for ln in lines]
    want = sorted(seeds)
    require(got == want, f"report seeds {got[:4]}... do not match the requested {want[:4]}...")


def check_summary_csv(text: str, count: int) -> None:
    """Header plus one row for the run, counting every body as satisfied."""
    rows = [ln.split(",") for ln in text.splitlines()]
    require(len(rows) == 2, f"summary CSV has {len(rows) - 1} rows, not 1")
    row = dict(zip(rows[0], rows[1]))
    require(row.get("count") == str(count), f"summary counts {row.get('count')} bodies, not {count}")
    require(row.get("all_satisfied") == "True", "summary reports a violated bound")


def check_same_bytes(got: str, want: str, what: str) -> None:
    require(got == want, f"{what} differs from its serial recomputation")
