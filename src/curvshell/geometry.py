"""Primitives of the three constant-curvature model geometries.

Covers the plane (c = 0), the sphere of curvature c = k^2 and the
hyperbolic plane of curvature c = -k^2: admissibility of curvature
pinchings, the conversion between the geodesic radius of a circle and
its geodesic curvature, the law of cosines, and a small set of exact
point operations (exponential map, distances, circle parameterization)
used by the spindle construction and the verification pipeline.

Points are embedded coordinates: shape (2,) arrays for the plane,
shape (3,) unit vectors on the sphere, and shape (3,) points on the
unit hyperboloid x^2 + y^2 - z^2 = -1 (z > 0) with the Minkowski form.
Geodesic distances carry the 1/k scaling, so all lengths are in the
caller's units regardless of k.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

FLAT = "flat"
SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

_CLAMP_EPS = 1e-12

# Curvature scales k and circle radii are squared along the way, so each
# square must be a normal binary64 number: k and radii in about
# [1.49e-154, 1.34e154].
_SQ_MIN, _SQ_MAX = sys.float_info.min, sys.float_info.max
_SCALE_RANGE = f"[{math.sqrt(_SQ_MIN):.3g}, {math.sqrt(_SQ_MAX):.3g}]"


def _normal_square(x: float) -> bool:
    """Whether x * x is a normal binary64 number (false for NaN and inf)."""
    return _SQ_MIN <= x * x <= _SQ_MAX


def _require_scale_k(k: float) -> None:
    if not _normal_square(k):
        raise ValueError(f"curvature scale k = {k} is outside the supported range "
                         f"{_SCALE_RANGE} (k^2 must be a normal binary64 number)")


@dataclass(frozen=True)
class SpaceCurvature:
    """Ambient sectional curvature c, sign-classified, with k = sqrt(|c|)."""

    c: float
    kind: str

    def __post_init__(self):
        if self.kind not in (FLAT, SPHERICAL, HYPERBOLIC):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind == FLAT and self.c != 0.0:
            raise ValueError("flat geometry requires c = 0")
        if self.kind == SPHERICAL and not self.c > 0.0:
            raise ValueError("spherical geometry requires c > 0")
        if self.kind == HYPERBOLIC and not self.c < 0.0:
            raise ValueError("hyperbolic geometry requires c < 0")
        if self.kind != FLAT and not _SQ_MIN <= abs(self.c) <= _SQ_MAX:
            raise ValueError(f"curvature c = {self.c} is outside the supported range: "
                             f"|c| must be a normal binary64 number")

    @property
    def k(self) -> float:
        """sqrt(|c|); 0 for the flat case."""
        return math.sqrt(abs(self.c))

    @property
    def is_flat(self) -> bool:
        return self.kind == FLAT

    @classmethod
    def flat(cls) -> "SpaceCurvature":
        return cls(0.0, FLAT)

    @classmethod
    def spherical(cls, k: float) -> "SpaceCurvature":
        if not k > 0:
            raise ValueError("spherical space needs k > 0")
        _require_scale_k(k)
        return cls(k * k, SPHERICAL)

    @classmethod
    def hyperbolic(cls, k: float) -> "SpaceCurvature":
        if not k > 0:
            raise ValueError("hyperbolic space needs k > 0")
        _require_scale_k(k)
        return cls(-k * k, HYPERBOLIC)

    @classmethod
    def from_c(cls, c: float) -> "SpaceCurvature":
        if c == 0.0:
            return cls.flat()
        return cls(c, SPHERICAL if c > 0 else HYPERBOLIC)


def _admissibility_violation(space: SpaceCurvature, kappa1: float, kappa2: float) -> str | None:
    """The condition that (kappa1, kappa2) breaks as a pinching for the space, or None.

    A pinching needs finite kappa2 >= kappa1 plus the lower-bound
    condition that depends on the sign of c: kappa1 > 0 in the plane,
    kappa1 >= 0 on the sphere, kappa1 > sqrt(-c) in hyperbolic space.
    """
    if not (math.isfinite(kappa1) and math.isfinite(kappa2)):
        return f"curvature bounds must be finite (got kappa1 = {kappa1}, kappa2 = {kappa2})"
    if not kappa2 >= kappa1:
        return f"kappa2 = {kappa2} must be >= kappa1 = {kappa1}"
    if space.kind == FLAT and not kappa1 > 0.0:
        return f"flat geometry requires kappa1 > 0 (got kappa1 = {kappa1})"
    if space.kind == SPHERICAL and not kappa1 >= 0.0:
        return f"spherical geometry requires kappa1 >= 0 (got kappa1 = {kappa1})"
    if space.kind == HYPERBOLIC and not kappa1 > space.k:
        return f"hyperbolic geometry requires kappa1 > sqrt(-c) = {space.k} (got kappa1 = {kappa1})"
    return None


def admissible(space: SpaceCurvature, kappa1: float, kappa2: float) -> bool:
    """Whether (kappa1, kappa2) is a valid normal-curvature pinching for the
    space (`_admissibility_violation` finds none).  Never raises."""
    return _admissibility_violation(space, kappa1, kappa2) is None


def sphere_radius_from_curvature(space: SpaceCurvature, kappa: float) -> float:
    """Geodesic radius of the circle whose geodesic curvature is kappa.

    1/kappa in the plane, arccot(kappa/k)/k on the sphere (branch in
    (0, pi/2], so kappa = 0 gives the hemisphere radius pi/(2k)) and
    arccoth(kappa/k)/k in hyperbolic space.  Strictly decreasing in kappa.
    """
    if not admissible(space, kappa, kappa):
        raise ValueError(
            f"curvature {kappa} is not admissible for c = {space.c}"
        )
    if space.kind == FLAT:
        return 1.0 / kappa
    k = space.k
    if space.kind == SPHERICAL:
        # arccot(kappa/k) = atan(k/kappa) on kappa > 0, cancellation-free
        if kappa == 0.0:
            return math.pi / (2.0 * k)
        return math.atan(k / kappa) / k
    return math.atanh(k / kappa) / k


def curvature_from_sphere_radius(space: SpaceCurvature, radius: float) -> float:
    """Geodesic curvature of the circle with the given geodesic radius.

    Exact inverse of :func:`sphere_radius_from_curvature`.  On the sphere
    the radius may not exceed the hemisphere radius pi/(2k); equality
    maps to curvature 0.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if space.kind == FLAT:
        return 1.0 / radius
    k = space.k
    if space.kind == SPHERICAL:
        if radius > math.pi / (2.0 * k) * (1.0 + _CLAMP_EPS):
            raise ValueError("spherical circle radius exceeds the hemisphere bound pi/(2k)")
        return k * math.cos(k * radius) / math.sin(k * radius)
    return k / math.tanh(k * radius)


def law_of_cosines_side(space: SpaceCurvature, a, b, gamma):
    """Side opposite the angle gamma in a geodesic triangle with sides a, b.

    Evaluated in half-angle form (sin^2 or sinh^2 of half the side), which
    stays accurate in the flat limit k -> 0 and for nearly degenerate
    triangles.  Broadcasts over array arguments; scalar arguments give a
    float.
    """
    a, b, gamma = (np.asarray(x, float) for x in (a, b, gamma))
    if (a < 0).any() or (b < 0).any():
        raise ValueError("side lengths must be nonnegative")
    if not ((0.0 <= gamma) & (gamma <= math.pi)).all():  # NaN fails too
        raise ValueError("angle must lie in [0, pi]")
    sin_half_g2 = np.sin(gamma / 2.0) ** 2
    if space.kind == FLAT:
        diff = a - b
        side = np.sqrt(np.maximum(diff * diff + 4.0 * a * b * sin_half_g2, 0.0))
    elif space.kind == SPHERICAL:
        k = space.k
        if (a >= math.pi / k).any() or (b >= math.pi / k).any():
            raise ValueError("spherical sides must be shorter than pi/k")
        # sin^2(kd/2) = sin^2(k(a-b)/2) + sin(ka) sin(kb) sin^2(g/2)
        s = np.sin(k * (a - b) / 2.0) ** 2 + np.sin(k * a) * np.sin(k * b) * sin_half_g2
        s = np.minimum(np.maximum(s, 0.0), 1.0)
        side = 2.0 * np.arctan2(np.sqrt(s), np.sqrt(1.0 - s)) / k
    else:
        k = space.k
        # sinh^2(kd/2) = sinh^2(k(a-b)/2) + sinh(ka) sinh(kb) sin^2(g/2)
        s = np.sinh(k * (a - b) / 2.0) ** 2 + np.sinh(k * a) * np.sinh(k * b) * sin_half_g2
        side = 2.0 * np.arcsinh(np.sqrt(np.maximum(s, 0.0))) / k
    return float(side) if side.ndim == 0 else side


def law_of_cosines_angle(space: SpaceCurvature, a: float, b: float, d: float) -> float:
    """Angle opposite the side d in a geodesic triangle with sides a, b.

    Uses the half-angle inversion gamma = 2 atan2(sqrt(u), sqrt(v)) with
    u ~ sin^2(gamma/2) and v ~ cos^2(gamma/2).  Radicands within 1e-12 of
    zero (relative to their normalizer) are clamped; beyond that the
    sides violate the triangle inequality and a ValueError is raised.
    """
    if not (a > 0 and b > 0):
        raise ValueError("sides adjacent to the angle must be positive")
    if d < 0:
        raise ValueError("opposite side must be nonnegative")
    if space.kind == FLAT:
        norm = 4.0 * a * b
        u = (d * d - (a - b) ** 2) / norm
        v = ((a + b) ** 2 - d * d) / norm
    else:
        k = space.k
        if space.kind == SPHERICAL:
            if a >= math.pi / k or b >= math.pi / k or d >= math.pi / k:
                raise ValueError("spherical sides must be shorter than pi/k")
            norm = math.sin(k * a) * math.sin(k * b)
            u = (math.sin(k * d / 2.0) ** 2 - math.sin(k * (a - b) / 2.0) ** 2) / norm
            v = (math.sin(k * (a + b) / 2.0) ** 2 - math.sin(k * d / 2.0) ** 2) / norm
        else:
            norm = math.sinh(k * a) * math.sinh(k * b)
            u = (math.sinh(k * d / 2.0) ** 2 - math.sinh(k * (a - b) / 2.0) ** 2) / norm
            v = (math.sinh(k * (a + b) / 2.0) ** 2 - math.sinh(k * d / 2.0) ** 2) / norm
    if u < -_CLAMP_EPS or v < -_CLAMP_EPS:
        raise ValueError(
            f"no geodesic triangle with sides a={a}, b={b}, d={d} (triangle inequality violated)"
        )
    return 2.0 * math.atan2(math.sqrt(max(u, 0.0)), math.sqrt(max(v, 0.0)))


@dataclass(frozen=True)
class PinchSpec:
    """Admissible curvature pinching (kappa1 <= kappa2) in a space, with circle radii r1 >= r2."""

    space: SpaceCurvature
    kappa1: float
    kappa2: float
    r1: float
    r2: float

    @classmethod
    def from_curvatures(cls, space: SpaceCurvature, kappa1: float, kappa2: float) -> "PinchSpec":
        violation = _admissibility_violation(space, kappa1, kappa2)
        if violation is not None:
            raise ValueError(violation)
        r1 = sphere_radius_from_curvature(space, kappa1)
        r2 = sphere_radius_from_curvature(space, kappa2)
        if not (_normal_square(r1) and _normal_square(r2)):
            raise ValueError(
                f"circle radii r1 = {r1}, r2 = {r2} of (kappa1={kappa1}, kappa2={kappa2}) "
                f"leave the supported range {_SCALE_RANGE} (r^2 must be a normal binary64 number)"
            )
        return cls(space, kappa1, kappa2, r1, r2)

    @property
    def is_degenerate(self) -> bool:
        """True when kappa1 == kappa2, i.e. the only pinched body is a ball."""
        return self.kappa1 == self.kappa2


def space_mismatch(space: SpaceCurvature, pinch: PinchSpec) -> ValueError:
    """The error for a space that is not the pinching's own.

    Callers compare c alone: it fixes the geometry, and a float comparison
    costs far less than the dataclass one.
    """
    return ValueError(f"mixed geometries: {space.kind} space (c = {space.c}) and a pinching "
                      f"in {pinch.space.kind} space (c = {pinch.space.c})")


# ---------------------------------------------------------------------------
# Point-level operations in the embedded models.

def origin(space: SpaceCurvature) -> np.ndarray:
    """Base point used as the symmetry center of constructions."""
    if space.kind == FLAT:
        return np.zeros(2)
    return np.array([0.0, 0.0, 1.0])


def _mink(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] - p[..., 2] * q[..., 2]


def distance(space: SpaceCurvature, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Geodesic distance; broadcasts over leading axes.

    Evaluated through the chordal separation (half-angle forms), which is
    accurate down to zero separation where acos/acosh of the inner product
    would plateau at the sqrt(eps) noise floor.
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if space.kind == FLAT:
        return np.linalg.norm(p - q, axis=-1)
    k = space.k
    if space.kind == SPHERICAL:
        half_chord = 0.5 * np.linalg.norm(p - q, axis=-1)
        return 2.0 * np.arctan2(half_chord, np.sqrt(np.maximum(1.0 - half_chord**2, 0.0))) / k
    chord2 = _mink(p - q, p - q)
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(chord2, 0.0))) / k


def axis_point_frame(space: SpaceCurvature, axis: int, t: float):
    """Point at signed distance t along a coordinate axis, with transported frame.

    Returns (point, u, v) where u, v are the parallel transports of the
    standard basis vectors along the axis geodesic through the origin.
    axis 0 is the rotation axis of the spindle construction, axis 1 its
    perpendicular in the meridian plane.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    if space.kind == FLAT:
        point = np.zeros(2)
        point[axis] = t
        return point, np.array([1.0, 0.0]), np.array([0.0, 1.0])
    phi = space.k * t
    if space.kind == SPHERICAL:
        cp, sp = math.cos(phi), math.sin(phi)
    else:
        cp, sp = math.cosh(phi), math.sinh(phi)
    sign = 1.0 if space.kind == SPHERICAL else -1.0
    if axis == 0:
        point = np.array([sp, 0.0, cp])
        u = np.array([cp, 0.0, -sign * sp])
        v = np.array([0.0, 1.0, 0.0])
    else:
        point = np.array([0.0, sp, cp])
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, cp, -sign * sp])
    return point, u, v


def axis_points(space: SpaceCurvature, t) -> np.ndarray:
    """Points at signed distances t along axis 0; broadcasts over t.

    The points of axis_point_frame(space, 0, t), for an array of t.
    """
    t = np.asarray(t, float)
    if space.kind == FLAT:
        return np.stack([t, np.zeros_like(t)], axis=-1)
    phi = space.k * t
    if space.kind == SPHERICAL:
        s, c = np.sin(phi), np.cos(phi)
    else:
        s, c = np.sinh(phi), np.cosh(phi)
    return np.stack([s, np.zeros_like(t), c], axis=-1)


def axis_foot(space: SpaceCurvature, p: np.ndarray) -> float:
    """Signed position t on axis 0 of the point of the axis nearest to p.

    Closed form: the foot of the perpendicular from p to the axis geodesic
    (on the sphere the nearer of the two critical points).
    """
    if space.kind == FLAT:
        return float(p[0])
    if space.kind == SPHERICAL:
        return math.atan2(p[0], p[2]) / space.k
    return math.atanh(p[0] / p[2]) / space.k


def circle_point(space: SpaceCurvature, center: np.ndarray, u: np.ndarray,
                 v: np.ndarray, rho: float, theta) -> np.ndarray:
    """Point of the geodesic circle at polar angle theta in the frame (u, v)."""
    theta = np.asarray(theta, float)
    w = np.multiply.outer(np.cos(theta), u) + np.multiply.outer(np.sin(theta), v)
    if space.kind == FLAT:
        return center + rho * w
    kr = space.k * rho
    if space.kind == SPHERICAL:
        return math.cos(kr) * center + math.sin(kr) * w
    return math.cosh(kr) * center + math.sinh(kr) * w


def circle_tangent(space: SpaceCurvature, center: np.ndarray, u: np.ndarray,
                   v: np.ndarray, rho: float, theta) -> np.ndarray:
    """Unit tangent of the circle traversal toward increasing theta."""
    theta = np.asarray(theta, float)
    return -np.multiply.outer(np.sin(theta), u) + np.multiply.outer(np.cos(theta), v)


def angle_in_frame(space: SpaceCurvature, center: np.ndarray, u: np.ndarray,
                   v: np.ndarray, p):
    """Polar angle of the direction from center to p in the frame (u, v).

    Broadcasts over points p of shape (..., dim); one point gives a float.
    """
    p = np.asarray(p, float)
    if space.kind == FLAT:
        w = p - center
        y, x = w @ v, w @ u
    elif space.kind == SPHERICAL:
        w = p - (p @ center)[..., None] * center
        y, x = w @ v, w @ u
    else:
        w = p + _mink(p, center)[..., None] * center
        y, x = _mink(w, v), _mink(w, u)
    # single-point kernel calls (numeric_radii) keep libm's atan2 bits:
    # np.arctan2 rounds differently on about 7% of random arguments
    if np.ndim(y) == 0:
        return math.atan2(float(y), float(x))
    return np.arctan2(y, x)


def point_reflect(space: SpaceCurvature, center: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Geodesic point reflection of p through center."""
    if space.kind == FLAT:
        return 2.0 * center - p
    if space.kind == SPHERICAL:
        return 2.0 * (p @ center) * center - p
    return -2.0 * _mink(p, center) * center - p


def tangent_inner(space: SpaceCurvature, x: np.ndarray, y: np.ndarray):
    """Riemannian inner product of tangent vectors based at a common point."""
    if space.kind == HYPERBOLIC:
        return _mink(x, y)
    return np.sum(np.asarray(x) * np.asarray(y), axis=-1)


def circle_circumference_factor(space: SpaceCurvature, rho: float) -> float:
    """Arc length per radian of polar angle for a circle of geodesic radius rho."""
    if space.kind == FLAT:
        return rho
    k = space.k
    if space.kind == SPHERICAL:
        return math.sin(k * rho) / k
    return math.sinh(k * rho) / k
