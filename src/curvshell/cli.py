"""Command-line front end: bound calculators, spindle export, batch verification.

Numbers are printed with 9 significant digits; JSON output carries full
binary64 values.  Exit codes: 0 success, 1 invalid input, 2 a verification
run found a bound violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bodies import RevolutionBody, spindle_support_curve
from .bounds import (
    outer_radius_bound,
    quotient_bound,
    quotient_bound_coarse,
    quotient_maximizer,
    stability_quotient_constant,
    stability_width_constant,
    width_bound,
)
from .export import write_profile_csv, write_profile_svg
from .geometry import PinchSpec, SpaceCurvature, admissible
from .spindle import SpindleSpec, build_spindle, spindle_radii
from .verify import check_bounds, summarize_worst_margins, verify_batch, write_jsonl
from .verify import _record_from_result

_JOBS_ENV = "CURVSHELL_JOBS"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    geo = parser.add_mutually_exclusive_group(required=True)
    geo.add_argument("--flat", action="store_true", help="Euclidean plane (c = 0)")
    geo.add_argument("--spherical", type=float, metavar="K", help="sphere, c = K^2")
    geo.add_argument("--hyperbolic", type=float, metavar="K", help="hyperbolic plane, c = -K^2")
    parser.add_argument("--k1", type=float, required=True, help="lower curvature bound")
    parser.add_argument("--k2", type=float, required=True, help="upper curvature bound")


def _space_from(args) -> SpaceCurvature:
    if args.flat:
        return SpaceCurvature.flat()
    if args.spherical is not None:
        return SpaceCurvature.spherical(args.spherical)
    return SpaceCurvature.hyperbolic(args.hyperbolic)


def _jobs_from_env() -> int:
    token = os.environ.get(_JOBS_ENV, "1")
    try:
        jobs = int(token)
    except ValueError:
        raise ValueError(f"{_JOBS_ENV} must be an integer (got {token!r})") from None
    if jobs < 1:
        raise ValueError(f"{_JOBS_ENV} must be at least 1 (got {jobs})")
    return jobs


def _geometry_record(space: SpaceCurvature) -> dict:
    return {"c": space.c, "kind": space.kind, "k": space.k}


def _resolve_r_tilde(pinch: PinchSpec, token: str) -> float:
    if token == "max-width":
        return width_bound(pinch.space, pinch).maximizer_r
    if token == "max-quotient":
        return quotient_maximizer(pinch)
    return float(token)


def cmd_bound(pinch: PinchSpec, args) -> int:
    space = pinch.space
    wb = width_bound(space, pinch)
    record = {
        "geometry": _geometry_record(space),
        "kappa1": pinch.kappa1,
        "kappa2": pinch.kappa2,
        "r1": pinch.r1,
        "r2": pinch.r2,
        "width_bound": wb.bound,
        "width_maximizer_r": wb.maximizer_r,
        "stability_width_constant": stability_width_constant(pinch.kappa1, space)
        if pinch.kappa1 ** 2 + space.c > 0 and admissible(space, pinch.kappa1, pinch.kappa1)
        else None,
    }
    print(f"width_bound {_fmt(wb.bound)}")
    print(f"width_maximizer_r {_fmt(wb.maximizer_r)}")
    if args.r is not None:
        ob = outer_radius_bound(space, pinch, args.r)
        record["r"] = args.r
        record["outer_radius_bound"] = ob
        print(f"outer_radius_bound(r={_fmt(args.r)}) {_fmt(ob)}")
    if space.kind == "flat":
        qb = quotient_bound(pinch)
        coarse = quotient_bound_coarse(pinch)
        record["quotient_bound"] = qb.bound
        record["quotient_maximizer_r"] = qb.maximizer_r
        record["quotient_bound_coarse"] = coarse
        record["stability_quotient_constant"] = stability_quotient_constant()
        print(f"quotient_bound {_fmt(qb.bound)}")
        print(f"quotient_maximizer_r {_fmt(qb.maximizer_r)}")
        print(f"quotient_bound_coarse {_fmt(coarse)}")
        print(f"stability_quotient_constant {_fmt(stability_quotient_constant())}")
    if record["stability_width_constant"] is not None:
        print(f"stability_width_constant(kappa1) {_fmt(record['stability_width_constant'])}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_spindle(pinch: PinchSpec, args) -> int:
    space = pinch.space
    r_tilde = _resolve_r_tilde(pinch, args.r)
    spec = SpindleSpec(space, pinch, r_tilde)
    r, big_r = spindle_radii(spec)
    print(f"r_tilde {_fmt(r)}")
    print(f"R_tilde {_fmt(big_r)}")
    print(f"width {_fmt(big_r - r)}")
    print(f"quotient {_fmt(big_r / r)}")
    profile = build_spindle(spec)
    if args.csv:
        write_profile_csv(profile, args.csv, n=args.samples)
    if args.svg:
        write_profile_svg(profile, args.svg, n=args.samples)
    if args.json:
        record = {
            "geometry": _geometry_record(space),
            "kappa1": pinch.kappa1,
            "kappa2": pinch.kappa2,
            "r_tilde": r,
            "R_tilde": big_r,
            "width": big_r - r,
            "quotient": big_r / r,
            "segments": len(profile.segments),
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


def _parse_seed_range(token: str):
    if ".." in token:
        lo, hi = token.split("..", 1)
        seeds = range(int(lo), int(hi) + 1)
        if not seeds:
            raise ValueError(f"empty seed range {token}")
        return seeds
    return [int(token)]


def _spindle_family_records(pinch: PinchSpec, args):
    space = pinch.space
    records = []
    for i, r_tilde in enumerate(np.linspace(pinch.r2, pinch.r1, args.grid)):
        spec = SpindleSpec(space, pinch, float(r_tilde))
        body = (spindle_support_curve(pinch, float(r_tilde)) if space.is_flat
                else RevolutionBody.spindle(spec))
        res = check_bounds(body, pinch)
        rec = _record_from_result(res, seed=None, pinch=pinch)
        rec["family_index"] = i
        rec["r_tilde"] = float(r_tilde)
        records.append(rec)
    return records


def cmd_verify(pinch: PinchSpec, args) -> int:
    space = pinch.space
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1 (got {args.grid})")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1 (got {args.jobs})")
    if args.family == "spindle":
        records = _spindle_family_records(pinch, args)
        label = "r_tilde"
    else:
        if not space.is_flat:
            raise ValueError(
                "random support-curve verification is flat-only; "
                "use --family spindle for the curved geometries"
            )
        seeds = _parse_seed_range(args.seeds)
        records = verify_batch(pinch, seeds, modes=args.modes, jobs=args.jobs)
        label = "seed"
    summary = summarize_worst_margins(records)
    if args.report:
        write_jsonl(records, args.report)
    if args.summary:
        from .verify import write_summary_csv

        row = dict(summary)
        row["kappa1"], row["kappa2"] = pinch.kappa1, pinch.kappa2
        write_summary_csv([row], args.summary)
    bad = [r for r in records
           if not (r["satisfied"]["width"] and r["satisfied"]["outer"]
                   and r["satisfied"]["quotient"] is not False)]
    n_ok = len(records) - len(bad)
    print(f"{n_ok}/{len(records)} satisfied")
    print(f"max_width {_fmt(summary['max_width'])}")
    print(f"worst_width_margin {_fmt(summary['worst_width_margin'])}")
    print(f"worst_outer_margin {_fmt(summary['worst_outer_margin'])}")
    if "worst_quotient_margin" in summary:
        print(f"worst_quotient_margin {_fmt(summary['worst_quotient_margin'])}")
    if bad:
        print(f"violation at {label}={bad[0][label]}", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1, like any other invalid input; 2 means
    a verification run found a bound violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parser built anew for
    every call of `main` leaves the heap more fragmented after each call,
    and the resident memory of a process that calls `main` in a loop grows."""
    parser = _Parser(
        prog="curvshell",
        description="Shell bounds for curvature-pinched convex bodies in "
                    "constant-curvature spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the closed-form bounds")
    _add_geometry_args(p_bound)
    p_bound.add_argument("--r", type=float, default=None,
                         help="inscribed radius for the outer-radius bound")
    p_bound.add_argument("--json", default=None, help="write a JSON record here")
    p_bound.set_defaults(func=cmd_bound)

    p_spin = sub.add_parser("spindle", help="build and export an extremal spindle")
    _add_geometry_args(p_spin)
    p_spin.add_argument("--r", required=True,
                        help="inscribed radius, or 'max-width' / 'max-quotient'")
    p_spin.add_argument("--samples", type=int, default=1024, help="export sample count")
    p_spin.add_argument("--csv", default=None, help="write sampled profile CSV here")
    p_spin.add_argument("--svg", default=None, help="write an SVG drawing here")
    p_spin.add_argument("--json", default=None, help="write a JSON record here")
    p_spin.set_defaults(func=cmd_spindle)

    p_ver = sub.add_parser("verify", help="check the bounds on generated bodies")
    _add_geometry_args(p_ver)
    p_ver.add_argument("--seeds", default="0..99", help="seed range A..B (random bodies)")
    p_ver.add_argument("--modes", type=int, default=8,
                       help="highest harmonic of the generator, 2 to 1023")
    p_ver.add_argument("--family", choices=["spindle"], default=None,
                       help="verify the extremal family instead of random bodies")
    p_ver.add_argument("--grid", type=int, default=33, help="family grid size")
    p_ver.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="at most N processes, the calling one included; one per 64 seeds "
                            f"begun (default ${_JOBS_ENV} or 1)")
    p_ver.add_argument("--report", default=None, help="write JSON-lines records here")
    p_ver.add_argument("--summary", default=None, help="write a summary CSV here")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify" and args.jobs is None:
            args.jobs = _jobs_from_env()
        return args.func(PinchSpec.from_curvatures(_space_from(args), args.k1, args.k2), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
