"""Small deterministic 1-D optimizers shared across modules."""

from __future__ import annotations

import numpy as np

_ZOOM_N = 33  # samples per bracketed_min round: the bracket narrows 16-fold


def grid_extrema(values: np.ndarray, low, high):
    """(row, j) of the cyclic local minima at or below low and local maxima at or above high.

    Each row of values samples one periodic function; low and high hold
    one threshold per row (-inf or inf leaves that kind out).
    """
    n = values.shape[1]
    idx = ((values <= low[:, None]) | (values >= high[:, None])).ravel().nonzero()[0]
    row, j = idx // n, idx % n
    v, prev, nxt = values[row, j], values[row, j - 1], values[row, (j + 1) % n]
    keep = ((v <= np.minimum(prev, nxt)) & (v <= low[row])) | (
        (v >= np.maximum(prev, nxt)) & (v >= high[row]))
    return row[keep], j[keep]


def refine_critical_points(derivs, t0: np.ndarray, halfwidth: float, iters: int = 60,
                           tol: float = 1e-15) -> np.ndarray:
    """Newton-polish critical points of smooth periodic functions.

    derivs(t, sel) returns (f', f'') at the points sel (an index array
    into t0), placed at t.  Each point starts from its grid candidate in
    t0 and never leaves +-halfwidth around it, so it stays in its own
    basin.  A point freezes once its own step is below tol, or no shorter
    than its step before: Newton's steps shrink until they reach the
    rounding of f', and then only dither.  So its result does not depend
    on the other points solved with it; all stop after iters steps.
    """
    t = np.array(t0, float)
    lo, hi = t - halfwidth, t + halfwidth
    live = np.arange(t.size)
    last = np.full(t.size, np.inf)  # each point's previous step length
    for _ in range(iters):
        if not live.size:
            break
        t_live = t[live]
        g, h = derivs(t_live, live)
        step = np.divide(g, h, out=np.zeros_like(g), where=np.abs(h) > 1e-300)
        step = np.minimum(np.maximum(step, -halfwidth), halfwidth)
        t[live] = np.minimum(np.maximum(t_live - step, lo[live]), hi[live])
        length = np.abs(step)
        shrinking = length < last[live]
        last[live] = length
        live = live[(length >= tol) & shrinking]
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
