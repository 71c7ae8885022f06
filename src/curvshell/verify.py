"""Empirical verification of the shell bounds on concrete convex bodies.

The shell of a body is centered at its inscribed-ball (Chebyshev) center.
Every body answers its shell as a stack (see `bodies`): `inscribed()`
gives the centers and radii, `outer_radius(centers)` the outer radii and
`depth(centers)` the signed distance to the boundary.  A trigonometric
stack answers with the `_flat` solvers.  An arc body takes its outer
radius and depth from its profile in closed form, and its center from
the certified support LP when flat or from its rotation axis when a body
of revolution.  `check_bounds` runs every body as its stack of one
through the same `_check_stack` as `verify_batch`, which checks the
seeded random bodies as stacks of at most STACK_CAP, in at most one
process per STACK_CAP seeds begun; a body's record does not depend on
the stack or the process it was checked in.  `inscribed_ball` and
`circumscribed_from_center` read row 0 of the same answers, the latter
testing first that its center is interior.  The module needs numpy alone.

Evaluations of a trigonometric body's series on the fixed direction
grids (the 2048-direction support grid, and the rolling check's default
100 samples and 512 probes) read the shared mode tables of `bodies`.
The flat rolling check's outer test takes the square root of the
largest squared distance: sqrt is monotone and correctly rounded, so
the verdict is the distance test's bit for bit, without a (samples,
probes, 2) array and its norm.  It runs over the samples in the blocks
of `bodies._row_blocks` (23 samples at the default 512 probes), so that
up to 4096 probes no temporary exceeds 12288 floats (96 KiB).  glibc
serves an allocation of 128 KiB or more with a fresh mmap and hands
large freed memory back to the kernel, so whole (samples, probes)
arrays made on each call faulted in about 1.9 MB of new pages per call
in a loop over flat bodies.  Each fault traps to the kernel, which
zeroes the page, and the call cost 1.4-1.7 ms instead of 0.55 on a
2-vCPU machine.  Blocks below the threshold are served again from the
heap.  Min and max are exact, so the verdict is the unblocked one bit
for bit.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._flat import _BodyError
from .bodies import (
    RevolutionBody,
    _row_blocks,
    angle_grid,
    curvature_range,
    random_pinched_stack,
    unit_vectors,
)
from .bounds import outer_radius_bound, quotient_bound, width_bound
from .geometry import PinchSpec, circle_point, space_mismatch
from .spindle import profile_extreme_dists, segment_length

BOUND_SLACK = 1e-7  # slack of the satisfied flags, relative to r1: absorbs discretization


@dataclass(frozen=True)
class BoundChecks:
    width: bool
    outer: bool
    quotient: bool | None

    @property
    def all_ok(self) -> bool:
        return self.width and self.outer and (self.quotient is None or self.quotient)


@dataclass(frozen=True)
class ShellResult:
    """Computed shell of one body, with the theoretical bounds it must obey."""

    center: np.ndarray
    inner_r: float
    outer_R: float
    width: float
    quotient: float
    width_bound: float
    outer_bound: float
    quotient_bound: float | None
    satisfied: BoundChecks

    @property
    def margins(self) -> dict:
        m = {
            "width": self.width_bound - self.width,
            "outer": self.outer_bound - self.outer_R,
        }
        if self.quotient_bound is not None:
            m["quotient"] = self.quotient_bound - self.quotient
        return m


def inscribed_ball(body):
    """Center and radius of the largest ball inside the body: row 0 of `stack.inscribed()`.

    A flat support body has the certified Chebyshev center of the support
    LP, a revolution body the best center on its rotation axis.
    """
    centers, r = body.stack.inscribed()
    return centers[0], float(r[0])


def circumscribed_from_center(body, center):
    """Largest geodesic distance from center to the boundary: row 0 of `stack.outer_radius`.

    The center must be interior, at a positive `depth`.  A trigonometric
    body polishes its largest grid distances; an arc body, flat or of
    revolution, takes the closed form of its profile.
    """
    stack, o = body.stack, np.asarray(center, float)[None]
    if stack.depth(o)[0] <= 0.0:
        raise ValueError("center must be interior to the body")
    return float(stack.outer_radius(o)[0])


def _pinch_precondition(body, pinch: PinchSpec):
    """Raise when the body, or a body of a stack, leaves the curvature pinching.

    The tolerance is 1e-8 kappa2, so it scales with the pinching and stays
    above the rounding of 1 / r at any scale.
    """
    kmin, kmax = (np.atleast_1d(v) for v in curvature_range(body))
    tol = 1e-8 * pinch.kappa2
    bad = np.flatnonzero((kmin < pinch.kappa1 - tol) | (kmax > pinch.kappa2 + tol))
    if bad.size:
        k = bad[0]
        lo, hi, lo_t, hi_t = (np.atleast_1d(v)[k] for v in body.rho_range())
        raise _BodyError(k, (
            "body violates the curvature pinching: "
            f"normal curvature range [{kmin[k]:.12g}, {kmax[k]:.12g}] vs "
            f"[{pinch.kappa1:.12g}, {pinch.kappa2:.12g}] "
            f"(curvature radius extremes at t={hi_t:.6g} and t={lo_t:.6g})"
        ))


def _shells(pinch: PinchSpec, centers, inner, outer) -> list:
    """ShellResults for bodies of these centers and radii; the bound formulas once per pinching.

    The slack of the satisfied flags and the range test on r scale with
    r1, so a scaled body and pinching keep their verdicts.
    """
    space = pinch.space
    wb = width_bound(space, pinch).bound
    qb = quotient_bound(pinch).bound if space.kind == "flat" else None
    slack = BOUND_SLACK * pinch.r1
    out = []
    for k, (center, r, big_r) in enumerate(zip(centers, inner, outer)):
        r, big_r = float(r), float(big_r)
        r_clamped = min(max(r, pinch.r2), pinch.r1)
        if abs(r_clamped - r) > 1e-6 * pinch.r1:
            raise _BodyError(k, f"inscribed radius {r} escapes [{pinch.r2}, {pinch.r1}]; "
                                "the body is not pinched as claimed")
        width = big_r - r
        quotient = big_r / r
        ob = outer_radius_bound(space, pinch, r_clamped)
        checks = BoundChecks(
            width=width <= wb + slack,
            outer=big_r <= ob + slack,
            quotient=None if qb is None else quotient <= qb + slack,
        )
        res = ShellResult(center, r, big_r, width, quotient, wb, ob, qb, checks)
        # a non-finite shell is a numerical failure, not a bound violation
        if not all(math.isfinite(v) for v in (r, big_r, *res.margins.values())):
            raise _BodyError(k, f"non-finite shell: r = {r}, R = {big_r}, margins {res.margins}")
        out.append(res)
    return out


def check_bounds(body, pinch: PinchSpec) -> ShellResult:
    """Compute the body's shell at the inscribed center and compare to the bounds.

    Every body is checked as its stack of one (`_check_stack`).
    """
    if body.space.c != pinch.space.c:
        raise space_mismatch(body.space, pinch)
    return _check_stack(body.stack, pinch)[0]


def _check_stack(stack, pinch: PinchSpec) -> list:
    """The ShellResults of the bodies of a stack.

    A center of r > 0 is interior, so it goes straight to the outer radius.
    """
    _pinch_precondition(stack, pinch)
    centers, inner = stack.inscribed()
    outside = np.flatnonzero(inner <= 0.0)
    if outside.size:
        raise _BodyError(outside[0], "center must be interior to the body")
    return _shells(pinch, centers, inner, stack.outer_radius(centers))


# ---------------------------------------------------------------------------
# Blaschke rolling checks.

def rolling_check(body, pinch: PinchSpec, samples: int = 100, probes: int = 512,
                  tol: float = 1e-9) -> bool:
    """Sampled rolling test: the tangent ball of radius r2 fits inside, the
    body fits inside the tangent ball of radius r1, at each sampled
    boundary point.  Containment is probed on a grid of boundary points
    (probes per ball), to tol * r1, so a scaled body keeps its verdict.
    A flat body is checked over blocks of samples (see the module
    docstring), keeping the least support gap and the largest squared
    distance across blocks; the verdict is the unblocked one bit for
    bit.  A body and a pinching of different geometries, or fewer than
    one sample or probe, raise ValueError."""
    if body.space.c != pinch.space.c:
        raise space_mismatch(body.space, pinch)
    for name, n in (("samples", samples), ("probes", probes)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1 (got {n})")
    tol = tol * pinch.r1
    if isinstance(body, RevolutionBody):
        return _rolling_revolution(body, pinch, samples, tol)
    th = angle_grid(samples)
    x = np.asarray(body.boundary(th))
    u = unit_vectors(th)
    c_in = x - pinch.r2 * u
    c_out = x - pinch.r1 * u

    th_probe = angle_grid(probes)
    u_rows = np.ascontiguousarray(unit_vectors(th_probe).T)
    h_probe = np.asarray(body.h(th_probe))
    px, py = np.ascontiguousarray(np.asarray(body.boundary(th_probe)).T)

    gaps, d2s = np.array([_rolling_block(h_probe, u_rows, px, py, c_in[b], c_out[b])
                          for b in _row_blocks(samples, probes)]).T
    # sqrt is monotone and correctly rounded, so the root of the largest
    # squared distance is the largest distance bit for bit
    return not gaps.min() < pinch.r2 - tol and math.sqrt(float(d2s.max())) <= pinch.r1 + tol


def _rolling_block(h_probe, u_rows, px, py, c_in, c_out):
    """(least support gap, largest squared distance) of a block of tangent ball centers.

    The probes come as contiguous rows; every temporary has the block's
    (rows, probes) shape and is gone when the block returns.
    """
    gap_min = (h_probe - c_in @ u_rows).min()
    dx = px - c_out[:, 0, None]
    dx *= dx
    dy = py - c_out[:, 1, None]
    dy *= dy
    dx += dy
    return gap_min, dx.max()


def _rolling_revolution(body: RevolutionBody, pinch: PinchSpec, samples: int, tol: float) -> bool:
    space, profile = body.space, body.profile
    lengths = np.array([segment_length(space, s) for s in profile.segments])
    counts = np.maximum((samples * lengths / lengths.sum()).round().astype(int), 1)
    c_in, c_out = [], []
    for seg, m in zip(profile.segments, counts):
        thetas = seg.theta_start + (np.arange(m) + 0.5) / m * seg.span
        # a tangent ball of radius r at a sample is centered on the sample's
        # own normal geodesic, at signed distance rho - r from the arc center
        for centers, r in ((c_in, pinch.r2), (c_out, pinch.r1)):
            centers.append(circle_point(space, seg.center, seg.frame_u, seg.frame_v,
                                        seg.radius - r, thetas))
    n_in = int(counts.sum())
    lo, hi = profile_extreme_dists(profile, np.concatenate(c_in + c_out))
    return not ((lo[:n_in] < pinch.r2 - tol).any() or (hi[n_in:] > pinch.r1 + tol).any())


# ---------------------------------------------------------------------------
# Batch verification over seeded random bodies.

def _record_from_result(res: ShellResult, seed, pinch: PinchSpec) -> dict:
    rec = {
        "seed": seed,
        "kappa1": pinch.kappa1,
        "kappa2": pinch.kappa2,
        "r": res.inner_r,
        "R": res.outer_R,
        "width": res.width,
        "quotient": res.quotient,
        "bounds": {
            "width": res.width_bound,
            "outer": res.outer_bound,
            "quotient": res.quotient_bound,
        },
        "satisfied": {
            "width": res.satisfied.width,
            "outer": res.satisfied.outer,
            "quotient": res.satisfied.quotient,
        },
        "margins": res.margins,
    }
    return rec


STACK_CAP = 64  # bodies per stack, so peak memory does not grow with the seed count


def _check_share(pinch, seeds, modes):
    """Records of the seeded random bodies, checked in stacks of at most STACK_CAP."""
    records = []
    for lo in range(0, len(seeds), STACK_CAP):
        part = seeds[lo:lo + STACK_CAP]
        try:
            results = _check_stack(random_pinched_stack(pinch, part, modes), pinch)
        except _BodyError as exc:
            raise ValueError(f"seed {part[exc.body]}: {exc}") from None
        records += [_record_from_result(res, seed, pinch) for res, seed in zip(results, part)]
    return records


def verify_batch(pinch: PinchSpec, seeds, modes: int = 8, jobs: int = 1):
    """Run check_bounds on the seeded random-body family; records sorted by seed.

    `jobs` is the most processes to use, the calling one included.  The
    seeds split into min(jobs, ceil(len(seeds) / STACK_CAP)) shares whose
    sizes differ by at most one, so a worker is forked only for a share of
    at least half a stack: below that, its fork and the copy-on-write
    faults it causes cost more than the work it takes over.  The calling
    process checks the first share itself and one worker process checks
    each of the others, each share as stacks of at most STACK_CAP bodies.
    A record does not depend on the stack or the share it was checked in,
    so the records are the same for every jobs.  A failure names its seed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1 (got {jobs})")
    seeds = [int(s) for s in seeds]
    n = max(min(jobs, -(-len(seeds) // STACK_CAP)), 1)
    size, extra = divmod(len(seeds), n)  # the first `extra` shares take one more
    ends = [i * size + min(i, extra) for i in range(n + 1)]
    shares = [seeds[a:b] for a, b in zip(ends[:-1], ends[1:]) if b > a]
    if len(shares) > 1:
        with ProcessPoolExecutor(max_workers=len(shares) - 1) as pool:
            futures = [pool.submit(_check_share, pinch, share, modes) for share in shares[1:]]
            records = _check_share(pinch, shares[0], modes)
            for fut in futures:
                records += fut.result()
    else:
        records = _check_share(pinch, seeds, modes)
    records.sort(key=lambda r: r["seed"])
    return records


def write_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def summarize_worst_margins(records) -> dict:
    """Worst (smallest) margin per bound over a batch, plus extreme widths."""
    out = {
        "count": len(records),
        "worst_width_margin": min(r["margins"]["width"] for r in records),
        "worst_outer_margin": min(r["margins"]["outer"] for r in records),
        "max_width": max(r["width"] for r in records),
        "max_quotient": max(r["quotient"] for r in records),
        "all_satisfied": all(
            r["satisfied"]["width"] and r["satisfied"]["outer"]
            and (r["satisfied"]["quotient"] is not False)
            for r in records
        ),
    }
    q_margins = [r["margins"].get("quotient") for r in records]
    if all(m is not None for m in q_margins) and q_margins:
        out["worst_quotient_margin"] = min(q_margins)
    return out


def write_summary_csv(summaries, path) -> None:
    """One row per pinch: worst margins of its batch."""
    cols = ["kappa1", "kappa2", "count", "worst_width_margin", "worst_outer_margin",
            "worst_quotient_margin", "max_width", "max_quotient", "all_satisfied"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in summaries:
            fh.write(",".join(str(s.get(c, "")) for c in cols) + "\n")
