"""Shell bounds for curvature-pinched convex bodies in constant-curvature spaces.

The package computes the sharp width and quotient bounds of the thinnest
spherical shell (centered at the inscribed-ball center) enclosing a convex
body whose normal curvatures are pinched between two constants, constructs
the extremal rounded spindle bodies attaining those bounds in the flat,
spherical and hyperbolic geometries, and verifies the bounds numerically
on generated convex bodies.  The package namespace holds the entry points;
every other name is imported from its own module.
"""

from .bodies import RevolutionBody, random_pinched_curve, spindle_support_curve
from .bounds import (
    outer_radius_bound,
    quotient_bound,
    quotient_bound_coarse,
    quotient_maximizer,
    stability_quotient_constant,
    stability_result,
    stability_width_constant,
    width_bound,
)
from .export import write_profile_csv, write_profile_svg
from .geometry import PinchSpec, SpaceCurvature
from .spindle import SpindleSpec, build_spindle, numeric_radii, spindle_radii
from .verify import (
    check_bounds,
    inscribed_ball,
    rolling_check,
    summarize_worst_margins,
    verify_batch,
    write_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "PinchSpec",
    "RevolutionBody",
    "SpaceCurvature",
    "SpindleSpec",
    "build_spindle",
    "check_bounds",
    "inscribed_ball",
    "numeric_radii",
    "outer_radius_bound",
    "quotient_bound",
    "quotient_bound_coarse",
    "quotient_maximizer",
    "random_pinched_curve",
    "rolling_check",
    "spindle_radii",
    "spindle_support_curve",
    "stability_quotient_constant",
    "stability_result",
    "stability_width_constant",
    "summarize_worst_margins",
    "verify_batch",
    "width_bound",
    "write_jsonl",
    "write_profile_csv",
    "write_profile_svg",
]
