"""Closed-form shell bounds for curvature-pinched convex bodies.

Every bound is expressed through the circle radii r1 = R(kappa1) and
r2 = R(kappa2) of the pinching.  The width bound is the maximum of the
width profile w(r) = outer_radius_bound(r) - r over the inscribed-radius
range [r2, r1]; the flat quotient bound is the maximum of the profile
q(r) = outer_radius_bound(r) / r.  Small pinchings are handled through
cancellation-free evaluations (asin/asinh forms and product identities)
so that the stability regime kappa2 = (1 + eps) * kappa1 stays accurate
down to eps ~ 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import FLAT, SPHERICAL, PinchSpec, SpaceCurvature, admissible, space_mismatch

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class WidthBoundResult:
    """Sharp shell-width bound together with the inscribed radius attaining it."""

    bound: float
    maximizer_r: float
    attained_R: float


@dataclass(frozen=True)
class QuotientBoundResult:
    """Sharp shell-quotient bound (flat only) and the radius attaining it."""

    bound: float
    maximizer_r: float
    attained_R: float


@dataclass(frozen=True)
class StabilityResult:
    """First-order shell constants for almost-umbilical pinchings."""

    width_constant: float
    quotient_constant: float | None
    epsilon: float


def _require_flat(pinch: PinchSpec, what: str) -> None:
    if not pinch.space.is_flat:
        raise ValueError(f"{what} is defined for flat (Euclidean) pinchings only")


def _check_r_range(pinch: PinchSpec, r: float) -> float:
    lo, hi = pinch.r2, pinch.r1
    slack = 1e-12 * max(1.0, hi)
    if not lo - slack <= r <= hi + slack:  # NaN fails too
        raise ValueError(f"radius {r} outside the admissible range [{lo}, {hi}]")
    return min(max(r, lo), hi)


def outer_radius_bound(space: SpaceCurvature, pinch: PinchSpec, r: float) -> float:
    """Sharp upper bound on the outer shell radius given inscribed radius r.

    Equals r exactly at both ends of [r2, r1] and when the pinching is
    degenerate.
    """
    if space.c != pinch.space.c:
        raise space_mismatch(space, pinch)
    r = _check_r_range(pinch, r)
    big_r, small_r = pinch.r1, pinch.r2
    u = big_r - r
    dd = big_r - small_r
    if space.kind == FLAT:
        # (dd - u)(dd + u) = dd^2 - u^2 without cancellation near u ~ dd
        return math.sqrt(max((dd - u) * (dd + u), 0.0)) + small_r
    k = space.k
    if space.kind == SPHERICAL:
        s = math.sin(k * (dd + u)) * math.sin(k * (dd - u))  # = cos^2(ku) - cos^2(k dd)
        d_cap = math.atan2(math.sqrt(max(s, 0.0)), math.cos(k * dd)) / k
        return d_cap + small_r
    s = math.sinh(k * (dd + u)) * math.sinh(k * (dd - u))  # = cosh^2(k dd) - cosh^2(ku)
    d_cap = math.asinh(math.sqrt(max(s, 0.0)) / math.cosh(k * u)) / k
    return d_cap + small_r


def width_profile(space: SpaceCurvature, pinch: PinchSpec, r_tilde: float) -> float:
    """Shell width of the extremal body with inscribed radius r_tilde."""
    return outer_radius_bound(space, pinch, r_tilde) - r_tilde


def width_bound(space: SpaceCurvature, pinch: PinchSpec) -> WidthBoundResult:
    """Sharp bound on the shell width R - r over all bodies with this pinching.

    The bound and its maximizing inscribed radius r* are both closed-form.
    At r* the two legs of the extremal right triangle are equal: with
    dd = r1 - r2 and u = r1 - r*, u = dd / sqrt(2) in the plane, and u
    solves sin(ku) = sqrt(2) sin(k dd / 2) on the sphere and sinh(ku) =
    sqrt(2) sinh(k dd / 2) in the hyperbolic plane.  The bound is 2u - dd.
    """
    if space.c != pinch.space.c:
        raise space_mismatch(space, pinch)
    if not admissible(space, pinch.kappa1, pinch.kappa2):
        raise ValueError("pinching is not admissible for this space")
    big_r, small_r = pinch.r1, pinch.r2
    dd = big_r - small_r
    if pinch.is_degenerate or dd == 0.0:
        return WidthBoundResult(0.0, big_r, big_r)
    if space.kind == FLAT:
        bound = (_SQRT2 - 1.0) * dd
        r_star = big_r - dd / _SQRT2
    else:
        k = space.k
        if space.kind == SPHERICAL:
            # k u = arccos sqrt(cos(k dd)), in cancellation-free form
            ku = math.asin(_SQRT2 * math.sin(k * dd / 2.0))
        else:
            ku = math.asinh(_SQRT2 * math.sinh(k * dd / 2.0))
        bound = (2.0 / k) * ku - dd
        r_star = min(max(big_r - ku / k, small_r), big_r)
    return WidthBoundResult(bound, r_star, outer_radius_bound(space, pinch, r_star))


def quotient_profile(pinch: PinchSpec, r_tilde: float) -> float:
    """Shell quotient R/r of the flat extremal body with inscribed radius r_tilde."""
    _require_flat(pinch, "quotient_profile")
    space = SpaceCurvature.flat()
    return outer_radius_bound(space, pinch, r_tilde) / r_tilde


def quotient_maximizer(pinch: PinchSpec) -> float:
    """Inscribed radius maximizing the flat quotient profile (root in (r2, r1))."""
    _require_flat(pinch, "quotient_maximizer")
    if pinch.is_degenerate:
        raise ValueError("quotient profile is constant for a degenerate pinching")
    big_r, small_r = pinch.r1, pinch.r2
    root = math.sqrt(2.0 * big_r * small_r)
    return (2.0 * big_r * big_r * small_r - small_r * (big_r - small_r) * root) / (
        big_r * big_r + small_r * small_r
    )


def quotient_bound(pinch: PinchSpec) -> QuotientBoundResult:
    """Sharp bound on the shell quotient R/r for flat pinchings."""
    _require_flat(pinch, "quotient_bound")
    if pinch.is_degenerate:
        return QuotientBoundResult(1.0, pinch.r1, pinch.r1)
    t = pinch.kappa2 / pinch.kappa1
    bound = (math.sqrt(t) + _SQRT2) / (math.sqrt(1.0 / t) + _SQRT2)
    r0 = quotient_maximizer(pinch)
    return QuotientBoundResult(bound, r0, bound * r0)


def quotient_bound_coarse(pinch: PinchSpec) -> float:
    """Coarse quotient bound kappa2/kappa1 (always >= the sharp bound)."""
    _require_flat(pinch, "quotient_bound_coarse")
    return pinch.kappa2 / pinch.kappa1


def stability_width_constant(kappa: float, space: SpaceCurvature) -> float:
    """Best constant C with width < C * eps for (kappa, (1+eps) kappa) pinchings."""
    if not admissible(space, kappa, kappa):
        raise ValueError(f"curvature {kappa} is not admissible for c = {space.c}")
    denom = kappa * kappa + space.c
    if denom <= 0.0:
        raise ValueError("kappa^2 + c must be positive")
    return kappa * (_SQRT2 - 1.0) / denom


def stability_quotient_constant() -> float:
    """Best constant C with R/r - 1 < C * eps for flat almost-umbilical pinchings."""
    return _SQRT2 - 1.0


def stability_result(kappa: float, space: SpaceCurvature, epsilon: float = 0.0) -> StabilityResult:
    """Bundle of the stability constants for a given base curvature."""
    if not 0.0 <= epsilon < math.inf:  # NaN fails too
        raise ValueError(f"epsilon must be finite and nonnegative (got {epsilon})")
    quotient = stability_quotient_constant() if space.kind == FLAT else None
    return StabilityResult(stability_width_constant(kappa, space), quotient, epsilon)
