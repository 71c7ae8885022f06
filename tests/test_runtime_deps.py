"""The package runs on numpy alone: scipy is a test-only reference."""

import json
import os
import subprocess
import sys
from pathlib import Path

import curvshell

# One op of each path that once called scipy.optimize: the flat support-body
# shell (circumscribed radius) with its rolling check, a curved spindle with
# its scanned radii, and an on-axis inscribed ball found at a crossing of two
# distance branches by the chord zoom.
SCRIPT = """
import json, sys
import curvshell as cs
from conftest import cut_lens_profile

flat = cs.SpaceCurvature.flat()
p = cs.PinchSpec.from_curvatures(flat, 1.0, 2.0)
body = cs.random_pinched_curve(p, seed=3)
assert cs.check_bounds(body, p).satisfied.all_ok and cs.rolling_check(body, p)

sphere = cs.SpaceCurvature.spherical(1.0)
q = cs.PinchSpec.from_curvatures(sphere, 1.0, 2.0)
spec = cs.SpindleSpec(sphere, q, 0.5 * (q.r1 + q.r2))
assert cs.check_bounds(cs.RevolutionBody.spindle(spec), q).satisfied.all_ok
cs.numeric_radii(cs.build_spindle(spec))

profile, _, r_star = cut_lens_profile()
assert abs(cs.inscribed_ball(cs.RevolutionBody(profile))[1] - r_star) <= 1e-14

print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_at_runtime():
    src = str(Path(curvshell.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
