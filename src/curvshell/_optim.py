"""Small deterministic 1-D optimizers shared across modules."""

from __future__ import annotations

import math

import numpy as np

_ZOOM_N = 33  # samples per bracketed_min round: the bracket narrows 16-fold
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)  # relative part of bracketed_root's tolerance
_ROOT_MAXITER = 500  # a safety cap: a simple root takes about ten steps


def local_extrema_mask(values: np.ndarray):
    """Masks of cyclic local minima / maxima of sampled periodic functions (on the last axis)."""
    prev = np.roll(values, 1, axis=-1)
    nxt = np.roll(values, -1, axis=-1)
    return (values <= prev) & (values <= nxt), (values >= prev) & (values >= nxt)


def refine_critical_points(derivs, t0: np.ndarray, halfwidth: float, iters: int = 60,
                           tol: float = 1e-15) -> np.ndarray:
    """Newton-polish critical points of smooth periodic functions.

    derivs(t, sel) returns (f', f'') at the points sel (an index array
    into t0), placed at t.  Each point starts from its grid candidate in
    t0 and never leaves +-halfwidth around it, so it stays in its own
    basin.  A point freezes once its own step is below tol, so its result
    does not depend on the other points solved with it; all stop after
    iters steps.
    """
    t = np.array(t0, float)
    lo, hi = t - halfwidth, t + halfwidth
    live = np.arange(t.size)
    for _ in range(iters):
        if not live.size:
            break
        t_live = t[live]
        g, h = derivs(t_live, live)
        step = np.divide(g, h, out=np.zeros_like(g), where=np.abs(h) > 1e-300)
        step = np.minimum(np.maximum(step, -halfwidth), halfwidth)
        t[live] = np.minimum(np.maximum(t_live - step, lo[live]), hi[live])
        live = live[np.abs(step) >= tol]
    return t


def bracketed_min(f, a: float, b: float, xtol: float):
    """Minimize a unimodal vectorized function on [a, b] by grid zooming.

    Each round samples _ZOOM_N evenly spaced points and shrinks the bracket
    to the two neighbours of the best sample, so a unimodal f keeps its
    minimizer inside; the bracket narrows 16-fold per round.  Stops
    once the bracket is at most xtol wide, or stops shrinking at the
    resolution of binary64.  Returns (x, f(x)) of the best sample.
    """
    if not b >= a:
        raise ValueError("need b >= a")
    while True:
        xs = np.linspace(a, b, _ZOOM_N)
        vals = np.asarray(f(xs), float)
        i = int(np.argmin(vals))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, _ZOOM_N - 1)]
        if b - a <= xtol or hi - lo >= b - a:
            return float(xs[i]), float(vals[i])
        a, b = lo, hi


def bracketed_root(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method.

    f(a) and f(b) must differ in sign.  Each step takes an inverse
    quadratic or secant step when it lands well inside the bracket and
    shrinks it fast enough, and bisects otherwise, so the bracket always
    holds a sign change.  Stops when half the bracket is within
    (xtol + _ROOT_RTOL |x|) / 2 of the iterate x, or f(x) == 0.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("root not bracketed: f(a) and f(b) have the same sign")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_MAXITER):
        if (fb > 0.0) == (fc > 0.0):  # keep the sign change between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best iterate
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * (xtol + _ROOT_RTOL * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise ValueError(f"root not resolved after {_ROOT_MAXITER} steps")
