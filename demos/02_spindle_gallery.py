"""Build the extremal rounded spindles and export drawings.

The spindle family interpolates between the two extreme balls of a
pinching: two long arcs of curvature kappa1 capped by arcs of curvature
kappa2.  At the width-maximizing member the shell width equals the sharp
bound; at the quotient maximizer (flat case) the shell quotient does.
Writes SVG drawings and sampled CSV profiles into demos/output/.
"""

from pathlib import Path

from curvshell import (
    PinchSpec,
    SpaceCurvature,
    SpindleSpec,
    build_spindle,
    numeric_radii,
    quotient_maximizer,
    spindle_radii,
    width_bound,
    write_profile_csv,
    write_profile_svg,
)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for space, k1, k2 in [
    (SpaceCurvature.flat(), 1.0, 2.0),
    (SpaceCurvature.spherical(1.0), 1.0, 2.0),
    (SpaceCurvature.hyperbolic(1.0), 2.0, 3.0),
]:
    pinch = PinchSpec.from_curvatures(space, k1, k2)
    wb = width_bound(space, pinch)
    spec = SpindleSpec(space, pinch, wb.maximizer_r)
    profile = build_spindle(spec)
    r, big_r = spindle_radii(spec)
    lo, hi = numeric_radii(profile)  # measured on the built arcs
    name = f"spindle_{space.kind}"
    write_profile_svg(profile, out_dir / f"{name}.svg")
    write_profile_csv(profile, out_dir / f"{name}.csv", n=2048)
    print(f"{space.kind:>10}: r={r:.6f} R={big_r:.6f} width={big_r - r:.9f} "
          f"(bound {wb.bound:.9f}; profile radii [{lo:.6f}, {hi:.6f}])")

# flat quotient maximizer member
space = SpaceCurvature.flat()
pinch = PinchSpec.from_curvatures(space, 1.0, 2.0)
spec = SpindleSpec(space, pinch, quotient_maximizer(pinch))
write_profile_svg(build_spindle(spec), out_dir / "spindle_flat_quotient.svg")
r, big_r = spindle_radii(spec)
print(f"{'flat q-max':>10}: r={r:.6f} R={big_r:.6f} quotient={big_r / r:.9f}")
print(f"\nwrote drawings to {out_dir}")
