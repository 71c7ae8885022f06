"""Convex bodies for empirical verification of the shell bounds.

Planar bodies are encoded by their support function h: the boundary
point with outer normal (cos t, sin t) is h u + h' u_perp and the
curvature radius is rho = h + h''.  Pinching kappa1 <= k_n <= kappa2 is
equivalent to rho staying inside [1/kappa2, 1/kappa1].  Two concrete
encodings are provided: a truncated trigonometric series for rho (the
random generator's output) and the exact support function of a flat
profile made of circular arcs, such as a flat rounded spindle.
Rotationally symmetric bodies in the curved geometries are carried by
their meridian profile.

Every body answers its shell as a stack.  A `TrigStack` holds K
trigonometric bodies as coefficient arrays, with per-body grid values
and per-point jets; `random_pinched_stack` generates one from K seeds,
`TrigSupportCurve.stack` is a stack of one, and an arc body is its own.
Every product is per body or per point, so a body's values do not depend
on the stack it is in.  A `TrigSupportCurve` evaluates with the same
coefficient block (`_coef_blocks`) and trigonometric vector, so its h,
h' and rho on THETA_GRID equal its stack's `grid` bit for bit.  A stack
answers `rho_range()` (which `curvature_range` reads), `inscribed()`,
`outer_radius(centers)` and `depth(centers)`, the signed distance to the
boundary: a `TrigStack` with the `_flat` solvers, an arc body from its
profile in closed form but for an `ArcSupportCurve`'s center, the LP's.

The fixed direction grids (THETA_GRID, and `angle_grid`'s arrays for the
rolling check's default sample and probe counts) are shared read-only
arrays.  Evaluating a body on one of them reads cos(m t) and sin(m t)
from a per-process table keyed by the grid and the mode count instead of
recomputing them; the tables hold the same values, so results are
bit-identical to an evaluation on a copy of the grid.  Any other angle
array is evaluated directly, in blocks of rows (`_row_blocks`), so
neither the tables nor a temporary grow with query sizes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _flat
from ._flat import GRID_N, THETA_GRID, _read_only
from ._optim import local_extrema_mask, refine_critical_points
from .geometry import PinchSpec, SpaceCurvature, curvature_from_sphere_radius
from .spindle import (
    _ProfileBody,
    ProfileCurve,
    SpindleSpec,
    _inscribed_revolution,
    build_spindle,
    require_tangent_joins,
)

# highest harmonic of the random generator: more than two grid samples per
# period of the top mode, and mode tables of at most 2048 x 2050 floats
MAX_MODES = GRID_N // 2 - 1

PINCH_MARGIN = 1e-6  # generated curvature radii keep PINCH_MARGIN * r1 from the band edges


def _even_angles(n):
    return np.arange(n) * (2.0 * math.pi / n)


# the support grid, and rolling_check's default sample and probe grids
_SHARED_GRIDS = {GRID_N: THETA_GRID, 100: _even_angles(100), 512: _even_angles(512)}
_read_only(*_SHARED_GRIDS.values())


def _shared(thetas) -> bool:
    return _SHARED_GRIDS.get(thetas.size) is thetas


def _trig_vector(thetas, modes):
    """[cos(m t) | sin(m t)] at the angles thetas, modes m = 0 .. modes + 1, on a new last axis."""
    arg = thetas[..., None] * np.arange(modes + 2.0)
    return np.concatenate([np.cos(arg), np.sin(arg)], axis=-1)


@functools.lru_cache(maxsize=16)  # a few mode counts on each shared grid
def _mode_table(n, modes):
    """`_trig_vector` over the shared grid of size n: one read-only (n, 2 modes + 4) array."""
    return _read_only(_trig_vector(_SHARED_GRIDS[n], modes))[0]


_BLOCK_FLOATS = 12288  # float64 per temporary of a blocked evaluation: 96 KiB


def _row_blocks(n, width, group=1):
    """Slices that cover range(n) in blocks of rows, each row width floats.

    A block holds a multiple of group rows, two at least, and one row less
    than the _BLOCK_FLOATS budget allows.  numpy multiplies a lone row by
    another path than a matrix of rows, which rounds differently, so a
    last row that would be left alone joins the block before it, in the
    row kept spare.
    """
    rows = max(2, group, (_BLOCK_FLOATS // max(width, 1) - 1) // group * group)
    starts = range(0, max(n - 1, 1), rows)  # no block starts at the last row
    return [slice(lo, lo + rows if lo + rows < n - 1 else n) for lo in starts]


def angle_grid(n):
    """n evenly spaced angles on [0, 2 pi): the shared read-only grid when there is one."""
    grid = _SHARED_GRIDS.get(n)
    return grid if grid is not None else _even_angles(n)


def unit_vectors(thetas):
    thetas = np.asarray(thetas, float)
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


def _coef_blocks(h0, rho_cos, rho_sin, translation):
    """(K, 2 M + 4, 5) coefficients of h, h', rho, rho', rho'' over `_trig_vector`, M modes.

    Mode 0 carries h0, mode 1 the translation (h and h' only) and modes
    2 .. M + 1 the series of rho, one block per row of rho_cos.
    """
    k, m = rho_cos.shape
    ns, j = np.arange(m + 2.0), m + 2  # the sine half starts at j
    coef = np.zeros((k, 2 * j, 5))
    coef[:, 0, 0] = coef[:, 0, 2] = h0
    coef[:, 1, 0], coef[:, j + 1, 0] = translation.T
    denom = 1.0 - ns[2:] ** 2
    coef[:, 2:j, 0], coef[:, j + 2:, 0] = rho_cos / denom, rho_sin / denom
    coef[:, 2:j, 2], coef[:, j + 2:, 2] = rho_cos, rho_sin
    # the t-derivative of c cos(nt) + s sin(nt) is n s cos(nt) - n c sin(nt)
    for src, dst in ((0, 1), (2, 3), (3, 4)):
        coef[:, :j, dst] = ns * coef[:, j:, src]
        coef[:, j:, dst] = -ns * coef[:, :j, src]
    return coef


class _SupportCurve:
    """A flat body given by its support function h(t) and h'(t)."""

    space = SpaceCurvature.flat()

    def boundary(self, thetas):
        """Boundary points x = h u + h' u_perp for normal angles thetas."""
        thetas = np.asarray(thetas, float)
        h, hp = self.h(thetas), self.h_prime(thetas)
        cos_t, sin_t = np.cos(thetas), np.sin(thetas)
        return np.stack([h * cos_t - hp * sin_t, h * sin_t + hp * cos_t], axis=-1)


class TrigSupportCurve(_SupportCurve):
    """Convex body whose curvature radius is a truncated trigonometric series.

    rho(t) = h0 + sum_n a_n cos(nt) + b_n sin(nt) over modes n >= 2; the
    missing first harmonics make the curve close up, and a translation
    vector enters h only (rho is translation invariant).  The body keeps
    its `TrigStack` coefficient block, so it evaluates as its stack does.
    """

    def __init__(self, h0, rho_cos=(), rho_sin=(), translation=(0.0, 0.0)):
        self.h0 = float(h0)
        self.rho_cos = np.asarray(rho_cos, float)
        self.rho_sin = np.asarray(rho_sin, float)
        if self.rho_cos.shape != self.rho_sin.shape:
            raise ValueError("cosine and sine coefficient arrays must align")
        self.translation = np.asarray(translation, float)
        self._coef = _coef_blocks(self.h0, self.rho_cos[None], self.rho_sin[None],
                                  self.translation[None])[0]

    def _series(self, thetas, col):
        """Column col of the coefficient block (h, h', rho, rho', rho'') at thetas."""
        thetas = np.asarray(thetas, float)
        modes, coef = self.rho_cos.size, self._coef[:, col]
        if _shared(thetas):
            return _mode_table(thetas.size, modes) @ coef
        if not thetas.ndim:
            return _trig_vector(thetas, modes) @ coef
        # other angles in blocks along the first axis, so that no table of the
        # query's size is built.  OpenBLAS's matrix-vector product rounds rows
        # in groups of 4 by one path and the rest by another: blocks of a
        # multiple of 4 rows keep each row's path, and its value bit for bit
        # wherever the unblocked product ran on one thread
        out = np.empty(thetas.shape)
        for b in _row_blocks(len(thetas), coef.size * math.prod(thetas.shape[1:]), group=4):
            out[b] = _trig_vector(thetas[b], modes) @ coef
        return out

    def h(self, thetas):
        """Support values (distance from the origin to the tangent line)."""
        return self._series(thetas, 0)

    def h_prime(self, thetas):
        return self._series(thetas, 1)

    def rho(self, thetas):
        """Curvature radius h + h''."""
        return self._series(thetas, 2)

    def rho_prime(self, thetas):
        return self._series(thetas, 3)

    def rho_second(self, thetas):
        return self._series(thetas, 4)

    @property
    def stack(self) -> "TrigStack":
        """This body as a stack of one."""
        return TrigStack(np.array([self.h0]), self.rho_cos[None], self.rho_sin[None],
                         self.translation[None])

    def rho_range(self) -> tuple:
        """(min, max, argmin, argmax) of the curvature radius, as its stack finds them."""
        return tuple(float(v[0]) for v in self.stack.rho_range())

    def translate(self, t):
        return TrigSupportCurve(self.h0, self.rho_cos, self.rho_sin, self.translation + np.asarray(t, float))

    def rotate(self, alpha):
        """Body rotated by alpha about the origin."""
        ns = np.arange(2.0, 2 + self.rho_cos.size)
        ca, sa = np.cos(alpha * ns), np.sin(alpha * ns)
        new_cos = self.rho_cos * ca - self.rho_sin * sa
        new_sin = self.rho_cos * sa + self.rho_sin * ca
        rot = np.array([[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]])
        return TrigSupportCurve(self.h0, new_cos, new_sin, rot @ self.translation)

    def scale(self, lam):
        if not lam > 0:
            raise ValueError("scale factor must be positive")
        return TrigSupportCurve(lam * self.h0, lam * self.rho_cos, lam * self.rho_sin,
                                lam * self.translation)


class TrigStack:
    """K trigonometric bodies held as coefficient arrays and evaluated together.

    Body k is one (2 M + 4, 5) coefficient matrix of h, h', rho, rho'
    and rho'' over the trigonometric vector [cos(m t) | sin(m t)], m = 0
    .. M + 1 (`_coef_blocks`), and `grid` takes one matrix-vector product
    per body and column with the shared `_mode_table`.  `jet` evaluates
    any (body, angle) pairs: per evaluation it takes cos and sin of the
    pairs' mode arguments once and multiplies them into a per-pair
    coefficient block gathered once per call of `jet`, so a Newton solve
    never rebuilds the trigonometric terms for f, f' and f''.  Every
    product is per body or per pair, so a body's values do not depend on
    the stack it is in.
    """

    space = SpaceCurvature.flat()

    def __init__(self, h0, rho_cos, rho_sin, translation):
        self.h0 = np.asarray(h0, float)
        self.rho_cos = np.asarray(rho_cos, float)
        self.rho_sin = np.asarray(rho_sin, float)
        self.translation = np.asarray(translation, float)
        self.modes = self.rho_cos.shape[1]
        self._coef = _coef_blocks(self.h0, self.rho_cos, self.rho_sin, self.translation)

    def __len__(self):
        return self.h0.size

    def body(self, k: int) -> TrigSupportCurve:
        return TrigSupportCurve(self.h0[k], self.rho_cos[k], self.rho_sin[k], self.translation[k])

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """(h, h', rho) on THETA_GRID: shape (3, K, GRID_N)."""
        table = _mode_table(GRID_N, self.modes)
        out = np.empty((3, len(self), GRID_N))
        for k, coef in enumerate(self._coef):
            for c in range(3):
                np.matmul(table, coef[:, c], out=out[c, k])
        return out

    def jet(self, body, centers=None):
        """Evaluator of (h, h', rho, rho', rho'') at the bodies `body` (index array).

        Returns at(t, sel=None): the five rows (5, P) at angles t of the
        pairs sel (all by default).  With centers (one row per pair), h and
        h' become the support gap h - <o, u> and its derivative.
        """
        block = self._coef[body]
        if centers is not None:
            m = self.modes + 3  # mode 1 of the sine half
            block[:, 1, 0] -= centers[:, 0]
            block[:, m, 0] -= centers[:, 1]
            block[:, 1, 1] -= centers[:, 1]
            block[:, m, 1] += centers[:, 0]

        def at(t, sel=None):
            trig = _trig_vector(t, self.modes)
            return np.matmul(trig[:, None, :], block if sel is None else block[sel])[:, 0].T

        return at

    def rho_range(self):
        """Per body (min, max, argmin, argmax) of rho: grid scan plus Newton on rho'.

        All grid-local extrema are polished, not only the grid-global ones,
        so near-degenerate competing extrema cannot slip past the scan; a
        grid value wins a tie with a polished one.
        """
        vals = self.grid[2]
        min_mask, max_mask = local_extrema_mask(vals)
        body, j = np.nonzero(min_mask | max_mask)
        at = self.jet(body)
        cand_t = refine_critical_points(lambda t, sel: at(t, sel)[3:], THETA_GRID[j],
                                        2.0 * math.pi / GRID_N)
        cand_v = at(cand_t)[2]
        rows = np.arange(len(self))
        out = []
        for sign in (1.0, -1.0):  # the minimum, then the maximum
            best = sign * vals
            best_t = np.broadcast_to(THETA_GRID, vals.shape).copy()
            polished = sign * cand_v < best[body, j]
            best[body[polished], j[polished]] = sign * cand_v[polished]
            best_t[body[polished], j[polished]] = cand_t[polished]
            i = np.argmin(best, axis=1)
            out += [sign * best[rows, i], best_t[rows, i]]
        lo, lo_t, hi, hi_t = out
        return lo, hi, lo_t, hi_t

    def inscribed(self):
        """(centers, r): the certified Chebyshev center and radius of each body."""
        return _flat._inscribed_support(self)[:2]

    def outer_radius(self, centers):
        """Largest distance from each body's center to its boundary: grid scan and polish."""
        return _flat._circumscribed(self, centers)

    def depth(self, centers):
        """Signed distance from each body's center to its boundary, > 0 inside: the least gap."""
        return _flat._support_gap_minima(self, centers)[0]


class ArcSupportCurve(_SupportCurve, _ProfileBody):
    """Exact support function of a flat convex profile made of circular arcs.

    The arc of center c and radius r covers the normal angles of its span
    (its polar angles plus the angle of its frame_u), and there h = <c, u>
    + r, h' = <c, u_perp> and rho = r.  The arcs of a closed convex
    profile with tangent joins cover the circle of normal angles once; one
    searchsorted over their sorted starts finds the arc of each angle.  A
    corner would leave its normal cone to the arc before it, whose circle
    runs on past its span there, so a profile with corners is refused.
    """

    def __init__(self, profile: ProfileCurve):
        if not profile.space.is_flat:
            raise ValueError("arc support curves are flat-geometry bodies")
        require_tangent_joins(profile, "arc support curves")
        arcs = profile.segments
        turns = [math.atan2(arc.frame_u[1], arc.frame_u[0]) for arc in arcs]
        # normal angles of each arc's start and middle (where rho_range reports it)
        starts, mids = np.mod([[arc.theta_start + w, arc.theta_start + 0.5 * arc.span + w]
                               for arc, w in zip(arcs, turns)], 2.0 * math.pi).T
        order = np.argsort(starts)
        self.profile = profile
        self._starts, self._mids = starts[order], mids[order]
        self._centers = np.array([arcs[i].center for i in order])
        self._radii = np.array([arcs[i].radius for i in order])

    def _arcs(self, thetas):
        """(t, k): the angles reduced to [0, 2 pi) and the index of each one's arc."""
        t = np.mod(np.asarray(thetas, float), 2.0 * math.pi)
        return t, (np.searchsorted(self._starts, t, side="right") - 1) % self._starts.size

    def h(self, thetas):
        t, k = self._arcs(thetas)
        c = self._centers[k]
        out = c[..., 0] * np.cos(t) + c[..., 1] * np.sin(t) + self._radii[k]
        return out if out.ndim else float(out)

    def h_prime(self, thetas):
        t, k = self._arcs(thetas)
        c = self._centers[k]
        out = c[..., 1] * np.cos(t) - c[..., 0] * np.sin(t)
        return out if out.ndim else float(out)

    def rho(self, thetas):
        out = self._radii[self._arcs(thetas)[1]]
        return out if out.ndim else float(out)

    def rho_prime(self, thetas):
        """0: rho is constant inside each arc."""
        out = np.zeros_like(np.asarray(thetas, float))
        return out if out.ndim else float(out)

    def rho_range(self) -> tuple:
        """(min, max, argmin, argmax): the extreme arc radii, at their arcs' middles."""
        lo, hi = int(np.argmin(self._radii)), int(np.argmax(self._radii))
        return (float(self._radii[lo]), float(self._radii[hi]),
                float(self._mids[lo]), float(self._mids[hi]))

    def inscribed(self):
        """(centers, r) of the certified support-LP center, as a stack of one."""
        return _flat._inscribed_support(self)[:2]

    # the evaluators of `TrigStack` that the center's solver reads
    @functools.cached_property
    def grid(self) -> np.ndarray:
        return np.stack([self.h(THETA_GRID), self.h_prime(THETA_GRID),
                         self.rho(THETA_GRID)])[:, None, :]

    def jet(self, body, centers=None):
        def at(t, sel=None):
            h, hp, rho = self.h(t), self.h_prime(t), self.rho(t)
            if centers is not None:
                o = centers if sel is None else centers[sel]
                cos_t, sin_t = np.cos(t), np.sin(t)
                h = h - (cos_t * o[:, 0] + sin_t * o[:, 1])
                hp = hp + (sin_t * o[:, 0] - cos_t * o[:, 1])
            return np.stack([h, hp, rho])

        return at


def spindle_support_curve(pinch: PinchSpec, r_tilde: float) -> ArcSupportCurve:
    """Flat rounded spindle as a support-function body."""
    return ArcSupportCurve(build_spindle(SpindleSpec(pinch.space, pinch, r_tilde)))


class RevolutionBody(_ProfileBody):
    """Rotationally symmetric body given by its meridian profile.

    Only the meridian is stored; the rotation axis is the construction
    axis of the profile (through its symmetry center).  All shell
    quantities of the body reduce to meridian-plane computations.
    """

    def __init__(self, profile: ProfileCurve):
        self.space = profile.space
        self.profile = profile

    @classmethod
    def spindle(cls, spec: SpindleSpec) -> "RevolutionBody":
        return cls(build_spindle(spec))

    def rho_range(self) -> tuple:
        """(min, max, nan, nan): the arc radii; a meridian has no normal-angle parameter.

        A corner has no curvature radius, so a profile with one raises
        ValueError naming its first corner (`require_tangent_joins`).
        """
        require_tangent_joins(self.profile, "revolution bodies")
        radii = [seg.radius for seg in self.profile.segments]
        return min(radii), max(radii), math.nan, math.nan

    def inscribed(self):
        """(centers, r) of the largest ball centered on the rotation axis, as a stack of one."""
        center, r = _inscribed_revolution(self.profile)
        return center[None], np.array([r])


def curvature_range(body) -> tuple:
    """(kmin, kmax): extremes of the normal curvature over the boundary; arrays for a TrigStack."""
    lo, hi, _, _ = body.rho_range()
    if body.space.is_flat:
        return 1.0 / hi, 1.0 / lo
    return (curvature_from_sphere_radius(body.space, hi),
            curvature_from_sphere_radius(body.space, lo))


def random_pinched_stack(pinch: PinchSpec, seeds, modes: int = 8) -> TrigStack:
    """Random convex curves, one per 64-bit seed, with curvature radius strictly inside [r2, r1].

    Deterministic in each seed (counter-based generator, one draw per
    seed).  Harmonic coefficients for modes 2..modes are drawn with a 1/n^2
    amplitude decay, then rescaled so the refined extrema of rho sit
    PINCH_MARGIN * r1 inside the pinching band, so a scaled pinching gives
    the scaled body; the worst case (all-zero draw) degenerates to the
    circle of radius (r1 + r2) / 2.  A body does not depend on the other
    seeds of the stack.
    """
    if not pinch.space.is_flat:
        raise ValueError("the random curve generator produces flat-geometry bodies")
    if modes < 2:
        raise ValueError("need at least the n = 2 harmonic")
    if modes > MAX_MODES:
        raise ValueError(f"modes must be at most {MAX_MODES} (got {modes}): the "
                         f"{GRID_N}-direction grid resolves no higher harmonic")
    ns = np.arange(2.0, modes + 1)
    decay = 1.0 / ns ** 2
    draws = np.empty((2, len(seeds), ns.size))
    for i, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(key=seed))
        draws[0, i] = rng.normal(size=ns.size) * decay
        draws[1, i] = rng.normal(size=ns.size) * decay
    a, b = draws

    mid = np.full(len(seeds), 0.5 * (pinch.r1 + pinch.r2))
    origin = np.zeros((len(seeds), 2))
    lo, hi, _, _ = TrigStack(mid, a, b, origin).rho_range()
    half_band = 0.5 * (pinch.r1 - pinch.r2)
    target = max(half_band - PINCH_MARGIN * pinch.r1, 0.0)
    up = np.divide(target, hi - mid, out=np.full(len(seeds), math.inf), where=hi > mid)
    down = np.divide(target, mid - lo, out=np.full(len(seeds), math.inf), where=mid > lo)
    scale = np.minimum(up, down)
    scale[~np.isfinite(scale)] = 0.0
    return TrigStack(mid, a * scale[:, None], b * scale[:, None], origin)


def random_pinched_curve(pinch: PinchSpec, seed: int, modes: int = 8) -> TrigSupportCurve:
    """Random convex curve with curvature radius strictly inside [r2, r1].

    The body of `random_pinched_stack` for one seed.
    """
    return random_pinched_stack(pinch, [seed], modes).body(0)
