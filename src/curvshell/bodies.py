"""Convex bodies for empirical verification of the shell bounds.

Planar bodies are encoded by their support function h: the boundary
point with outer normal (cos t, sin t) is h u + h' u_perp and the
curvature radius is rho = h + h''.  Pinching kappa1 <= k_n <= kappa2 is
equivalent to rho staying inside [1/kappa2, 1/kappa1].  Two concrete
encodings are provided: a truncated trigonometric series for rho (the
random generator's output) and the exact piecewise-trigonometric
support function of a flat rounded spindle.  Rotationally symmetric
bodies in the curved geometries are carried by their meridian profile.

The fixed direction grids (THETA_GRID, and `angle_grid`'s arrays for the
rolling check's default sample and probe counts) are shared read-only
arrays.  Evaluating a body on one of them reads cos(n t) and sin(n t)
from a per-process table keyed by the grid and the mode count instead of
recomputing them; the tables hold the same values, so results are
bit-identical to an evaluation on a copy of the grid.  Any other angle
array is evaluated directly, so the tables never grow with query sizes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._optim import local_extrema_mask, refine_critical_points
from .geometry import PinchSpec, SpaceCurvature, curvature_from_sphere_radius
from .spindle import ProfileCurve, SpindleSpec, build_spindle, spindle_geometry

GRID_N = 2048

PINCH_MARGIN = 1e-6  # generated curvature radii keep PINCH_MARGIN * r1 from the band edges


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _even_angles(n):
    return np.arange(n) * (2.0 * math.pi / n)


# the support grid, and rolling_check's default sample and probe grids
_SHARED_GRIDS = {n: _even_angles(n) for n in (GRID_N, 100, 512)}
_read_only(*_SHARED_GRIDS.values())
THETA_GRID = _SHARED_GRIDS[GRID_N]


def _frames_of(grid):
    """(cos t, sin t, u, u_perp) of a shared grid, read-only."""
    c, s = np.cos(grid), np.sin(grid)
    return _read_only(c, s, np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1))


_FRAMES = {n: _frames_of(grid) for n, grid in _SHARED_GRIDS.items()}


def _shared(thetas) -> bool:
    return _SHARED_GRIDS.get(thetas.size) is thetas


@functools.lru_cache(maxsize=16)  # a few mode counts on each shared grid
def _mode_table(n, count):
    """(cos(m t), sin(m t)) over the shared grid of size n, modes m = 2 .. count + 1."""
    arg = np.multiply.outer(_SHARED_GRIDS[n], np.arange(2, 2 + count))
    return _read_only(np.cos(arg), np.sin(arg))


def angle_grid(n):
    """n evenly spaced angles on [0, 2 pi): the shared read-only grid when there is one."""
    grid = _SHARED_GRIDS.get(n)
    return grid if grid is not None else _even_angles(n)


def cos_sin(thetas):
    """(cos t, sin t), from the table on a shared grid."""
    thetas = np.asarray(thetas, float)
    if _shared(thetas):
        return _FRAMES[thetas.size][:2]
    return np.cos(thetas), np.sin(thetas)


def _unit_frames(thetas):
    """Unit normals u and tangents u_perp stacked on the last axis."""
    if _shared(thetas):
        return _FRAMES[thetas.size][2:]
    c, s = np.cos(thetas), np.sin(thetas)
    return np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)


def unit_vectors(thetas):
    thetas = np.asarray(thetas, float)
    if _shared(thetas):
        return _FRAMES[thetas.size][2]
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


_U_GRID = unit_vectors(THETA_GRID)


class TrigSupportCurve:
    """Convex body whose curvature radius is a truncated trigonometric series.

    rho(t) = h0 + sum_n a_n cos(nt) + b_n sin(nt) over modes n >= 2; the
    missing first harmonics make the curve close up, and a translation
    vector enters h only (rho is translation invariant).
    """

    space = SpaceCurvature.flat()

    def __init__(self, h0, rho_cos=(), rho_sin=(), translation=(0.0, 0.0)):
        self.h0 = float(h0)
        self.rho_cos = np.asarray(rho_cos, float)
        self.rho_sin = np.asarray(rho_sin, float)
        if self.rho_cos.shape != self.rho_sin.shape:
            raise ValueError("cosine and sine coefficient arrays must align")
        self.ns = np.arange(2, 2 + self.rho_cos.size)
        self.translation = np.asarray(translation, float)
        denom = 1.0 - self.ns.astype(float) ** 2
        self._h_cos = self.rho_cos / denom
        self._h_sin = self.rho_sin / denom

    def _trig(self, thetas):
        thetas = np.asarray(thetas, float)
        if _shared(thetas):
            return _mode_table(thetas.size, self.ns.size)
        arg = np.multiply.outer(thetas, self.ns)
        return np.cos(arg), np.sin(arg)

    def h(self, thetas):
        """Support values (distance from the origin to the tangent line)."""
        thetas = np.asarray(thetas, float)
        cos_a, sin_a = self._trig(thetas)
        cos_t, sin_t = cos_sin(thetas)
        out = self.h0 + cos_a @ self._h_cos + sin_a @ self._h_sin
        out = out + cos_t * self.translation[0] + sin_t * self.translation[1]
        return out

    def h_prime(self, thetas):
        thetas = np.asarray(thetas, float)
        cos_a, sin_a = self._trig(thetas)
        cos_t, sin_t = cos_sin(thetas)
        out = -sin_a @ (self._h_cos * self.ns) + cos_a @ (self._h_sin * self.ns)
        out = out - sin_t * self.translation[0] + cos_t * self.translation[1]
        return out

    def rho(self, thetas):
        """Curvature radius h + h''."""
        cos_a, sin_a = self._trig(thetas)
        return self.h0 + cos_a @ self.rho_cos + sin_a @ self.rho_sin

    def rho_prime(self, thetas):
        cos_a, sin_a = self._trig(thetas)
        return -sin_a @ (self.rho_cos * self.ns) + cos_a @ (self.rho_sin * self.ns)

    def rho_second(self, thetas):
        cos_a, sin_a = self._trig(thetas)
        n2 = self.ns.astype(float) ** 2
        return -cos_a @ (self.rho_cos * n2) - sin_a @ (self.rho_sin * n2)

    def boundary(self, thetas):
        """Boundary points x = h u + h' u_perp for normal angles thetas."""
        thetas = np.asarray(thetas, float)
        u, up = _unit_frames(thetas)
        return self.h(thetas)[..., None] * u + self.h_prime(thetas)[..., None] * up

    def translate(self, t):
        return TrigSupportCurve(self.h0, self.rho_cos, self.rho_sin, self.translation + np.asarray(t, float))

    def rotate(self, alpha):
        """Body rotated by alpha about the origin."""
        ca, sa = np.cos(alpha * self.ns), np.sin(alpha * self.ns)
        new_cos = self.rho_cos * ca - self.rho_sin * sa
        new_sin = self.rho_cos * sa + self.rho_sin * ca
        rot = np.array([[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]])
        return TrigSupportCurve(self.h0, new_cos, new_sin, rot @ self.translation)

    def scale(self, lam):
        if not lam > 0:
            raise ValueError("scale factor must be positive")
        return TrigSupportCurve(lam * self.h0, lam * self.rho_cos, lam * self.rho_sin,
                                lam * self.translation)


class ArcSupportCurve:
    """Exact support-function view of a flat rounded spindle.

    Piecewise: h = r1 - a sin t over the main spans, h = r2 +- d cos t over
    the caps, with a = r1 - r_tilde, d the cap-center offset and the join
    normal angle phi = atan2(a, d).  rho is r1 or r2 accordingly.
    """

    space = SpaceCurvature.flat()

    def __init__(self, pinch: PinchSpec, r_tilde: float):
        if not pinch.space.is_flat:
            raise ValueError("spindle support curves are flat-geometry bodies")
        spec = SpindleSpec(pinch.space, pinch, r_tilde)
        geom = spindle_geometry(spec)
        self.pinch = pinch
        self.r_tilde = min(max(r_tilde, pinch.r2), pinch.r1)
        self.a = pinch.r1 - self.r_tilde
        self.d = geom.d_tilde
        self.phi = math.atan2(self.a, self.d)

    def _masks(self, thetas):
        t = np.mod(np.asarray(thetas, float), 2.0 * math.pi)
        right = (t <= self.phi) | (t >= 2.0 * math.pi - self.phi)
        left = np.abs(t - math.pi) <= self.phi
        upper = (t > self.phi) & (t < math.pi - self.phi)
        lower = ~(right | left | upper)
        return t, right, left, upper, lower

    def h(self, thetas):
        t, right, left, upper, lower = self._masks(thetas)
        out = np.empty_like(t)
        out[right] = self.pinch.r2 + self.d * np.cos(t[right])
        out[left] = self.pinch.r2 - self.d * np.cos(t[left])
        out[upper] = self.pinch.r1 - self.a * np.sin(t[upper])
        out[lower] = self.pinch.r1 + self.a * np.sin(t[lower])
        return out if out.ndim else float(out)

    def h_prime(self, thetas):
        t, right, left, upper, lower = self._masks(thetas)
        out = np.empty_like(t)
        out[right] = -self.d * np.sin(t[right])
        out[left] = self.d * np.sin(t[left])
        out[upper] = -self.a * np.cos(t[upper])
        out[lower] = self.a * np.cos(t[lower])
        return out if out.ndim else float(out)

    def rho(self, thetas):
        t, right, left, _, _ = self._masks(thetas)
        out = np.full_like(t, self.pinch.r1)
        out[right | left] = self.pinch.r2
        return out if out.ndim else float(out)

    def rho_prime(self, thetas):
        """0: rho is constant inside each arc."""
        out = np.zeros_like(np.asarray(thetas, float))
        return out if out.ndim else float(out)

    def boundary(self, thetas):
        thetas = np.asarray(thetas, float)
        u, up = _unit_frames(thetas)
        h = np.asarray(self.h(thetas))
        hp = np.asarray(self.h_prime(thetas))
        return h[..., None] * u + hp[..., None] * up


def spindle_support_curve(pinch: PinchSpec, r_tilde: float) -> ArcSupportCurve:
    """Flat rounded spindle as a support-function body."""
    return ArcSupportCurve(pinch, r_tilde)


class RevolutionBody:
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


def _trig_rho_extrema(body: TrigSupportCurve):
    """Exact (min, argmin, max, argmax) of rho: grid scan plus Newton on rho'.

    All grid-local extrema are polished, not only the grid-global ones, so
    near-degenerate competing extrema cannot slip past the scan.
    """
    vals = body.rho(THETA_GRID)
    min_mask, max_mask = local_extrema_mask(vals)
    step = 2.0 * math.pi / GRID_N
    cand_t = refine_critical_points(body.rho_prime, body.rho_second,
                                    THETA_GRID[min_mask | max_mask], step)
    cand_v = body.rho(cand_t)
    all_v = np.concatenate([vals, cand_v])
    all_t = np.concatenate([THETA_GRID, cand_t])
    lo_i, hi_i = int(np.argmin(all_v)), int(np.argmax(all_v))
    return float(all_v[lo_i]), float(all_t[lo_i]), float(all_v[hi_i]), float(all_t[hi_i])


def rho_range(body) -> tuple:
    """(min, max) of the curvature radius, with the angles attaining them."""
    if isinstance(body, TrigSupportCurve):
        lo, lo_t, hi, hi_t = _trig_rho_extrema(body)
        return lo, hi, lo_t, hi_t
    if isinstance(body, ArcSupportCurve):
        return body.pinch.r2, body.pinch.r1, 0.0, math.pi / 2.0
    if isinstance(body, RevolutionBody):
        radii = [seg.radius for seg in body.profile.segments]
        return min(radii), max(radii), math.nan, math.nan
    raise TypeError(f"unsupported body type {type(body).__name__}")


def curvature_range(body) -> tuple:
    """(kmin, kmax): extremes of the normal curvature over the boundary."""
    lo, hi, _, _ = rho_range(body)
    if isinstance(body, RevolutionBody):
        return (curvature_from_sphere_radius(body.space, hi),
                curvature_from_sphere_radius(body.space, lo))
    return 1.0 / hi, 1.0 / lo


def closure_residual(body) -> float:
    """Max |integral of rho * (cos, sin)| over the period; 0 for closed curves."""
    vals = np.asarray(body.rho(THETA_GRID))
    mom = (vals[:, None] * _U_GRID).sum(axis=0) * (2.0 * math.pi / GRID_N)
    return float(np.abs(mom).max())


def random_pinched_curve(pinch: PinchSpec, seed: int, modes: int = 8) -> TrigSupportCurve:
    """Random convex curve with curvature radius strictly inside [r2, r1].

    Deterministic in the 64-bit seed (counter-based generator).  Harmonic
    coefficients for modes 2..modes are drawn with a 1/n^2 amplitude decay,
    then rescaled so the refined extrema of rho sit PINCH_MARGIN * r1 inside
    the pinching band, so a scaled pinching gives the scaled body; the worst
    case (all-zero draw) degenerates to the circle of radius (r1 + r2) / 2.
    """
    if not pinch.space.is_flat:
        raise ValueError("the random curve generator produces flat-geometry bodies")
    if modes < 2:
        raise ValueError("need at least the n = 2 harmonic")
    rng = np.random.Generator(np.random.Philox(key=seed))
    ns = np.arange(2, modes + 1)
    decay = 1.0 / ns.astype(float) ** 2
    a = rng.normal(size=ns.size) * decay
    b = rng.normal(size=ns.size) * decay

    mid = 0.5 * (pinch.r1 + pinch.r2)
    body = TrigSupportCurve(mid, a, b)
    lo, _, hi, _ = _trig_rho_extrema(body)
    dev_up, dev_dn = hi - mid, mid - lo
    half_band = 0.5 * (pinch.r1 - pinch.r2)
    target = max(half_band - PINCH_MARGIN * pinch.r1, 0.0)
    scale = min(target / dev_up if dev_up > 0 else math.inf,
                target / dev_dn if dev_dn > 0 else math.inf)
    if not math.isfinite(scale):
        scale = 0.0
    return TrigSupportCurve(mid, a * scale, b * scale)
