"""CSV and SVG export of profile curves.

Curved-geometry profiles are drawn in azimuthal-equidistant coordinates
about the symmetry center (geodesic distance preserved along rays), so
the inscribed and circumscribed circles of the drawing are metrically
faithful in every geometry.
"""

from __future__ import annotations

import numpy as np

from .geometry import angle_in_frame, axis_point_frame, distance
from .spindle import ProfileCurve, profile_extreme_dists, sample_profile


def profile_xy(profile: ProfileCurve, n: int = 1024):
    """Planar coordinates of n sampled profile points plus curvature tags."""
    pts, tags = sample_profile(profile, n)
    space = profile.space
    if space.is_flat:
        return pts, tags
    center = profile.symmetry_center
    _, e1, e2 = axis_point_frame(space, 0, 0.0)
    d = distance(space, center, pts)
    beta = angle_in_frame(space, center, e1, e2, pts)
    return np.stack([d * np.cos(beta), d * np.sin(beta)], axis=1), tags


def write_profile_csv(profile: ProfileCurve, path, n: int = 1024) -> None:
    """Sampled profile as 'x,y,kappa' rows (azimuthal-equidistant for curved).

    Every float is written by repr; a segment's curvature tag is formatted
    once for its run of rows, found by the tag's bits (so 0.0 and -0.0 stay apart).
    """
    xy, tags = profile_xy(profile, n)
    bits = tags.view(np.int64)
    first = np.flatnonzero(np.concatenate([[True], bits[1:] != bits[:-1]])).tolist()
    rows, lines = xy.tolist(), ["x,y,kappa\n"]
    for a, b, kap in zip(first, first[1:] + [len(rows)], tags[first].tolist()):
        tail = f",{kap!r}\n"
        lines += [f"{x!r},{y!r}{tail}" for x, y in rows[a:b]]
    with open(path, "w") as fh:
        fh.write("".join(lines))


def profile_svg(profile: ProfileCurve, n: int = 1024, size: int = 640) -> str:
    """SVG drawing of the meridian, viewBox centered on the symmetry center.

    The dashed shell circles have the exact extreme distances from the
    symmetry center as radii, written in full precision.
    """
    xy, _ = profile_xy(profile, n)
    r_in, r_out = (float(r) for r in profile_extreme_dists(profile, profile.symmetry_center))
    view = 1.15 * r_out
    # one %-format over plain floats: per-point f-strings of numpy scalars cost twice as much
    flat = np.column_stack([xy[:, 0], -xy[:, 1]]).ravel().tolist()
    coords = " L ".join(["%.6f %.6f"] * len(xy)) % tuple(flat)
    stroke = view / 160.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{-view:.6f} {-view:.6f} {2 * view:.6f} {2 * view:.6f}">',
        f'<path d="M {coords} Z" fill="#d9d9d9" fill-opacity="0.55" '
        f'stroke="black" stroke-width="{stroke:.6f}"/>',
    ]
    for r in (r_in, r_out):
        parts.append(
            f'<circle cx="0" cy="0" r="{r!r}" fill="none" stroke="black" '
            f'stroke-width="{stroke / 2:.6f}" stroke-dasharray="{3 * stroke:.6f} {3 * stroke:.6f}"/>'
        )
    parts.append(f'<circle cx="0" cy="0" r="{stroke:.6f}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_profile_svg(profile: ProfileCurve, path, n: int = 1024, size: int = 640) -> None:
    with open(path, "w") as fh:
        fh.write(profile_svg(profile, n=n, size=size))
        fh.write("\n")
