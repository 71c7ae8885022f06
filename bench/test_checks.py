"""Tests of the benchmark's correctness checks.

Each test takes a correct output of the program, shows that the check
accepts it, then feeds the check a deliberately wrong r, R or bound value
and expects a CheckError.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import curvshell as cs  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

FLAT = cs.SpaceCurvature.flat()
SPACES = {"flat": FLAT, "spherical": cs.SpaceCurvature.spherical(1.0),
          "hyperbolic": cs.SpaceCurvature.hyperbolic(1.0)}
PINCHES = {"flat": (1.0, 2.0), "spherical": (1.0, 2.0), "hyperbolic": (2.0, 3.0)}


@pytest.fixture(scope="module")
def flat_body():
    pinch = cs.PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
    body = cs.random_pinched_curve(pinch, seed=7, modes=8)
    return pinch, body, cs.check_bounds(body, pinch)


def _check_body(pinch, body, res, r=None, big_r=None, n_lp=None, rho_scale=1.0):
    checks.check_flat_body(
        body.h0, body.rho_cos * rho_scale, body.rho_sin * rho_scale, body.translation,
        pinch.kappa1, pinch.kappa2, res.center,
        res.inner_r if r is None else r, res.outer_R if big_r is None else big_r,
        n_lp=n_lp)


class TestFlatBody:
    def test_accepts_the_program_output(self, flat_body):
        _check_body(*flat_body, n_lp=16384)

    @pytest.mark.parametrize("delta", [1e-7, 1e-4])
    def test_rejects_an_inradius_too_large(self, flat_body, delta):
        with pytest.raises(CheckError, match="does not fit"):
            _check_body(*flat_body, r=flat_body[2].inner_r + delta)

    @pytest.mark.parametrize("delta", [1e-6, 1e-3])
    def test_rejects_an_inradius_too_small(self, flat_body, delta):
        with pytest.raises(CheckError, match="below the LP inradius"):
            _check_body(*flat_body, r=flat_body[2].inner_r - delta, n_lp=16384)

    def test_rejects_an_outer_radius_too_small(self, flat_body):
        with pytest.raises(CheckError, match="below the sampled boundary maximum"):
            _check_body(*flat_body, big_r=flat_body[2].outer_R - 1e-7)

    def test_rejects_an_outer_radius_too_large(self, flat_body):
        with pytest.raises(CheckError, match="exceeds the sampled boundary maximum"):
            _check_body(*flat_body, big_r=flat_body[2].outer_R + 1e-6)

    def test_rejects_a_body_outside_the_pinching(self, flat_body):
        with pytest.raises(CheckError, match="leaves the band"):
            _check_body(*flat_body, rho_scale=1.5)

    def test_ball_largest_rejects_r_above_the_lp_bound(self):
        with pytest.raises(CheckError, match="exceeds the LP upper bound"):
            checks.check_ball_largest(0.7 + 1e-8, 0.7, 1e-8)


class TestFlatShellBounds:
    def test_accepts_the_extremal_spindle(self):
        pinch = cs.PinchSpec.from_curvatures(FLAT, 1.0, 2.0)
        r = cs.width_bound(FLAT, pinch).maximizer_r
        big_r = float(checks.mp_outer_radius("flat", 0, 1.0, 0.5, r))
        checks.check_flat_shell_bounds(r, big_r, 1.0, 2.0)

    def test_rejects_a_width_above_the_bound(self):
        r = 1.0 - 0.5 / math.sqrt(2.0)  # the width maximizer of (1, 2)
        big_r = r + (math.sqrt(2.0) - 1.0) * 0.5 + 1e-6
        with pytest.raises(CheckError, match="exceeds the width bound"):
            checks.check_flat_shell_bounds(r, big_r, 1.0, 2.0)

    def test_rejects_an_outer_radius_above_the_bound(self):
        with pytest.raises(CheckError, match="exceeds the outer-radius bound"):
            checks.check_flat_shell_bounds(0.99, 1.0, 1.0, 2.0)

    def test_rejects_a_quotient_above_the_bound(self):
        with pytest.raises(CheckError, match="exceeds the quotient bound"):
            checks.check_flat_shell_bounds(0.2, 0.2 * 2.0, 1.0, 5.0)  # bound 1.96


@pytest.fixture(scope="module", params=["flat", "spherical", "hyperbolic"])
def spindle(request):
    kind = request.param
    space = SPACES[kind]
    pinch = cs.PinchSpec.from_curvatures(space, *PINCHES[kind])
    r_tilde = pinch.r2 + 0.37 * (pinch.r1 - pinch.r2)
    profile = cs.build_spindle(cs.SpindleSpec(space, pinch, r_tilde))
    body = (cs.spindle_support_curve(pinch, r_tilde) if space.is_flat
            else cs.RevolutionBody(profile))
    res = cs.check_bounds(body, pinch)
    scan = cs.numeric_radii(profile)
    return kind, space.k, pinch, r_tilde, res.inner_r, res.outer_R, scan


class TestSpindle:
    def _run(self, spindle, dr=0.0, d_big_r=0.0, d_scan=(0.0, 0.0)):
        kind, k, pinch, r_tilde, r, big_r, (lo, hi) = spindle
        checks.check_spindle(kind, k, pinch.kappa1, pinch.kappa2, r_tilde,
                             r + dr, big_r + d_big_r, lo + d_scan[0], hi + d_scan[1])

    def test_accepts_the_program_output(self, spindle):
        self._run(spindle)

    def test_rejects_a_wrong_inradius(self, spindle):
        with pytest.raises(CheckError, match="inscribed radius"):
            self._run(spindle, dr=1e-8)

    def test_rejects_a_wrong_outer_radius(self, spindle):
        with pytest.raises(CheckError, match="outer radius"):
            self._run(spindle, d_big_r=-1e-6)

    def test_rejects_wrong_scanned_radii(self, spindle):
        with pytest.raises(CheckError, match="scanned inner"):
            self._run(spindle, d_scan=(1e-8, 0.0))
        with pytest.raises(CheckError, match="scanned outer"):
            self._run(spindle, d_scan=(0.0, 1e-8))


class TestFamilyWidth:
    @staticmethod
    def _widths(kind, n=16):
        k = SPACES[kind].k
        r1, r2 = (checks.mp_radius(kind, k, kap) for kap in PINCHES[kind])
        return [float(checks.mp_outer_radius(kind, k, r1, r2, r2 + (j + 0.5) / n * (r1 - r2))
                      - (r2 + (j + 0.5) / n * (r1 - r2))) for j in range(n)]

    @pytest.mark.parametrize("kind", ["flat", "spherical", "hyperbolic"])
    def test_accepts_the_closed_form_family(self, kind):
        checks.check_family_width(kind, SPACES[kind].k, *PINCHES[kind], self._widths(kind))

    @pytest.mark.parametrize("kind", ["flat", "spherical", "hyperbolic"])
    def test_rejects_a_family_short_of_the_bound(self, kind):
        widths = [0.9 * w for w in self._widths(kind)]
        with pytest.raises(CheckError, match="more than the grid resolution"):
            checks.check_family_width(kind, SPACES[kind].k, *PINCHES[kind], widths)

    @pytest.mark.parametrize("kind", ["flat", "spherical", "hyperbolic"])
    def test_rejects_a_width_above_the_bound(self, kind):
        k = SPACES[kind].k
        r1, r2 = (checks.mp_radius(kind, k, kap) for kap in PINCHES[kind])
        widths = self._widths(kind)
        widths[5] = float(checks.mp_width_bound(kind, k, r1, r2)) + 1e-6
        with pytest.raises(CheckError, match="exceeds the width bound"):
            checks.check_family_width(kind, SPACES[kind].k, *PINCHES[kind], widths)


def _bound_set(kind, kappa1, kappa2):
    space = SPACES[kind]
    pinch = cs.PinchSpec.from_curvatures(space, kappa1, kappa2)
    wb = cs.width_bound(space, pinch)
    radii = [pinch.r2 + f * (pinch.r1 - pinch.r2) for f in (0.1, 0.5, 0.9)]
    qb = cs.quotient_bound(pinch) if space.is_flat else None
    stab = cs.stability_result(kappa1, space, kappa2 / kappa1 - 1.0)
    return dict(kind=kind, k=space.k, kappa1=kappa1, kappa2=kappa2, r1=pinch.r1, r2=pinch.r2,
                width=wb.bound, maximizer_r=wb.maximizer_r, attained_r=wb.attained_R,
                radii=radii, outers=[cs.outer_radius_bound(space, pinch, r) for r in radii],
                quotient=None if qb is None else (qb.bound, qb.maximizer_r, qb.attained_R),
                stability_width=stab.width_constant, stability_quotient=stab.quotient_constant)


BOUND_CASES = [("flat", 1.0, 2.0), ("flat", 1.0, 1.0 + 1e-6), ("spherical", 1.0, 2.0),
               ("spherical", 0.5, 0.5 * (1 + 1e-5)), ("hyperbolic", 2.0, 3.0),
               ("hyperbolic", 1.5, 1.5 * (1 + 1e-4))]


class TestBoundSet:
    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_accepts_the_program_output(self, case):
        checks.check_bound_set(**_bound_set(*case))

    @pytest.mark.parametrize("case", BOUND_CASES)
    @pytest.mark.parametrize("field", ["r1", "r2", "width", "attained_r", "stability_width"])
    def test_rejects_a_wrong_value(self, case, field):
        values = _bound_set(*case)
        values[field] *= 1.0 + 1e-10
        with pytest.raises(CheckError):
            checks.check_bound_set(**values)

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_rejects_a_wrong_outer_radius_bound(self, case):
        values = _bound_set(*case)
        values["outers"][1] *= 1.0 + 1e-10
        with pytest.raises(CheckError, match="outer-radius bound"):
            checks.check_bound_set(**values)

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_rejects_a_maximizer_off_the_top(self, case):
        values = _bound_set(*case)
        values["maximizer_r"] += 1e-3 * (values["r1"] - values["r2"])
        with pytest.raises(CheckError, match="at the maximizer"):
            checks.check_bound_set(**values)

    @pytest.mark.parametrize("case", [c for c in BOUND_CASES if c[0] == "flat"])
    def test_rejects_a_wrong_quotient_bound(self, case):
        values = _bound_set(*case)
        qb, q_r, q_big_r = values["quotient"]
        values["quotient"] = (qb * (1.0 + 1e-10), q_r, q_big_r)
        with pytest.raises(CheckError, match="quotient"):
            checks.check_bound_set(**values)

    def test_stability_line_rejects_a_width_above_it(self):
        c = 0.5 * (math.sqrt(2.0) - 1.0)  # flat, kappa1 = 2
        checks.check_stability_line(0.999 * c * 1e-3, c, 2.0, 2.0 * (1 + 1e-3))
        with pytest.raises(CheckError, match="stability constant"):
            checks.check_stability_line(1.000001 * c * 1e-3, c, 2.0, 2.0 * (1 + 1e-3))


class TestReports:
    def test_report_accepts_sorted_seeds(self):
        checks.check_report([json.dumps({"seed": s}) for s in range(5)], range(5))

    def test_report_rejects_a_missing_or_unsorted_seed(self):
        with pytest.raises(CheckError):
            checks.check_report([json.dumps({"seed": s}) for s in range(4)], range(5))
        with pytest.raises(CheckError):
            checks.check_report([json.dumps({"seed": s}) for s in (1, 0, 2)], range(3))

    def test_summary_rejects_a_wrong_count_or_a_violation(self):
        header = "kappa1,kappa2,count,all_satisfied"
        checks.check_summary_csv(f"{header}\n1,2,32,True\n", 32)
        with pytest.raises(CheckError):
            checks.check_summary_csv(f"{header}\n1,2,31,True\n", 32)
        with pytest.raises(CheckError):
            checks.check_summary_csv(f"{header}\n1,2,32,False\n", 32)

    def test_serial_recomputation_must_match_bytes(self):
        line = json.dumps({"seed": 1, "r": 0.5})
        checks.check_same_bytes(line, line, "record")
        with pytest.raises(CheckError):
            checks.check_same_bytes(line, json.dumps({"seed": 1, "r": 0.5000000000000001}),
                                    "record")

    def test_profile_csv_rejects_a_point_outside_the_shell(self):
        rows = ["x,y,kappa", "0.5,0,1", "0,0.6,2"]
        checks.check_profile_csv("\n".join(rows), 0.5, 0.6, 2)
        with pytest.raises(CheckError, match="leave the shell"):
            checks.check_profile_csv("\n".join(rows), 0.5, 0.6 - 1e-6, 2)
