"""The benchmark's workloads: inputs made from the seed, one op, and its checks.

Each workload numbers its ops 0, 1, 2, ...; op i's input depends only on
the seed and i, so a traced block of ops and its untraced replay do the
same work.  Ops come in rounds of `round_size` (one per pinching), and a
run always ends on a whole round.  Where the three geometries differ in
cost, one op covers all three, so that op latencies are not a mixture
whose median falls between its modes.  The program is called through the
package namespace `cs` (and `cli.main`), which is where the traced run
puts its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from time import perf_counter

import numpy as np

import curvshell as cs
from curvshell import cli

FLAT = cs.SpaceCurvature.flat()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, stream]))


def _space(kind: str, k: float) -> cs.SpaceCurvature:
    return FLAT if kind == "flat" else getattr(cs.SpaceCurvature, kind)(k)


class FlatRandom:
    """Seeded random flat bodies: generate, check_bounds, rolling_check."""

    name = "flat-random"
    PINCHES = ((1.0, 1.1), (1.0, 2.0), (1.0, 5.0))
    MODES = 8
    round_size = len(PINCHES)
    min_ops = round_size
    DENSE_EVERY = 8  # dense-grid and mpmath checks on ops 0, 8, 16, ...
    LP_EVERY = 32    # the reference LP on ops 0, 32, 64, ...
    LP_DIRECTIONS = 16384

    def __init__(self, seed: int, workdir: str):
        self.pinches = [cs.PinchSpec.from_curvatures(FLAT, *k) for k in self.PINCHES]
        self.body_key = int(_rng(seed, 0).integers(2**62))

    def keeps(self, i: int) -> bool:
        return i % self.DENSE_EVERY == 0

    def op(self, i: int, tr):
        pinch = self.pinches[i % self.round_size]
        body = cs.random_pinched_curve(pinch, seed=self.body_key + i, modes=self.MODES)
        res = cs.check_bounds(body, pinch)
        rolls = cs.rolling_check(body, pinch)
        return body, res, rolls

    @staticmethod
    def failed(out) -> bool:
        _, res, rolls = out
        return not (res.satisfied.all_ok and rolls)

    def check(self, outs, checks) -> None:
        for i in range(0, len(outs), self.DENSE_EVERY):
            if outs[i] is None:
                continue
            body, res, _ = outs[i]
            pinch = self.pinches[i % self.round_size]
            checks.check_flat_body(
                body.h0, body.rho_cos, body.rho_sin, body.translation,
                pinch.kappa1, pinch.kappa2, res.center, res.inner_r, res.outer_R,
                n_lp=self.LP_DIRECTIONS if i % self.LP_EVERY == 0 else None)


class SpindleFamily:
    """The rounded-spindle family over r_tilde in [r2, r1], in all three geometries.

    The pinchings are fixed; the seed moves the family grid by a phase in
    [0, 1) of its step and stretches kappa2 - kappa1 by a factor in [0.9, 1.1].
    """

    name = "spindle-family"
    GEOMETRIES = (("flat", 0.0, 1.0, 2.0), ("spherical", 1.0, 1.0, 2.0),
                  ("hyperbolic", 1.0, 2.0, 3.0))
    FAMILY = 16
    round_size = 1
    min_ops = FAMILY  # one whole family
    EXPORT_SAMPLES = 1024
    KEEP_EVERY = 8  # these ops export to files of their own, which are checked

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 1)
        self.workdir = workdir
        self.members = []  # per geometry: (kind, k, space, pinch, r_tilde list)
        for kind, k, k1, k2 in self.GEOMETRIES:
            space = _space(kind, k)
            k2 = k1 + (k2 - k1) * float(rng.uniform(0.9, 1.1))
            pinch = cs.PinchSpec.from_curvatures(space, k1, k2)
            phase = float(rng.uniform())
            step = (pinch.r1 - pinch.r2) / self.FAMILY
            r_tildes = [pinch.r2 + (j + phase) * step for j in range(self.FAMILY)]
            self.members.append((kind, k, space, pinch, r_tildes))

    def _stem(self, i: int, kind: str) -> str:
        tag = f"{i}" if i % self.KEEP_EVERY == 0 else "latest"
        return os.path.join(self.workdir, f"spindle-{kind}-{tag}")

    @staticmethod
    def keeps(i: int) -> bool:
        return True

    def op(self, i: int, tr):
        """Member i mod FAMILY of the family in each geometry."""
        out = []
        for kind, _, space, pinch, r_tildes in self.members:
            r_tilde = r_tildes[i % self.FAMILY]
            profile = cs.build_spindle(cs.SpindleSpec(space, pinch, r_tilde))
            body = (cs.spindle_support_curve(pinch, r_tilde) if space.is_flat
                    else cs.RevolutionBody(profile))
            res = cs.check_bounds(body, pinch)
            rolls = cs.rolling_check(body, pinch)
            radii = cs.numeric_radii(profile)
            stem = self._stem(i, kind)
            with tr.span("export.write_profile"):
                cs.write_profile_csv(profile, stem + ".csv", n=self.EXPORT_SAMPLES)
                cs.write_profile_svg(profile, stem + ".svg", n=self.EXPORT_SAMPLES)
            out.append((res, rolls, radii))
        return out

    @staticmethod
    def failed(out) -> bool:
        return not all(res.satisfied.all_ok and rolls for res, rolls, _ in out)

    def check(self, outs, checks) -> None:
        for i, out in enumerate(outs):
            if out is None:
                continue
            for (kind, k, _, pinch, r_tildes), (res, rolls, radii) in zip(self.members, out):
                r_tilde = r_tildes[i % self.FAMILY]
                scan_r, scan_big_r = radii
                checks.require(rolls, f"{kind} spindle r_tilde={r_tilde!r} fails the rolling check")
                checks.check_spindle(kind, k, pinch.kappa1, pinch.kappa2, r_tilde,
                                     res.inner_r, res.outer_R, scan_r, scan_big_r)
                if i % self.KEEP_EVERY == 0:
                    stem = self._stem(i, kind)
                    with open(stem + ".csv") as fh:
                        checks.check_profile_csv(fh.read(), res.inner_r, scan_big_r,
                                                 self.EXPORT_SAMPLES)
                    with open(stem + ".svg") as fh:
                        checks.check_profile_svg(fh.read())
        for g, (kind, k, _, pinch, _) in enumerate(self.members):
            family = [o[g][0] for o in outs[:self.FAMILY] if o]
            checks.check_family_width(kind, k, pinch.kappa1, pinch.kappa2,
                                      [res.outer_R - res.inner_r for res in family])


class BoundsSweep:
    """Seeded pinchings in the three geometries through the bound calculators."""

    name = "bounds-sweep"
    KINDS = ("flat", "spherical", "hyperbolic")
    round_size = 1
    min_ops = 1
    POOL = 1000            # op i takes pool[i % POOL], one pinching per geometry
    R_FRACTIONS = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    CHECK_EVERY = 10       # mpmath checks on ops 0, 10, 20, ... of the first POOL

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 2)
        self.pool = []
        for _ in range(self.POOL):
            entry = []
            for kind in self.KINDS:
                k = 0.0 if kind == "flat" else 10.0 ** rng.uniform(-0.5, 0.5)
                if kind == "hyperbolic":
                    kappa1 = k * (1.0 + 10.0 ** rng.uniform(-2.0, 0.5))
                else:
                    kappa1 = 10.0 ** rng.uniform(-0.5, 0.7)
                eps = 10.0 ** rng.uniform(-6.0, 0.5)
                entry.append((kind, k, _space(kind, k), kappa1, kappa1 * (1.0 + eps), eps))
            self.pool.append(entry)

    def keeps(self, i: int) -> bool:
        return i < self.POOL and i % self.CHECK_EVERY == 0

    def op(self, i: int, tr):
        out = []
        for _, _, space, kappa1, kappa2, eps in self.pool[i % self.POOL]:
            pinch = cs.PinchSpec.from_curvatures(space, kappa1, kappa2)
            wb = cs.width_bound(space, pinch)
            radii = [pinch.r2 + f * (pinch.r1 - pinch.r2) for f in self.R_FRACTIONS]
            outers = [cs.outer_radius_bound(space, pinch, r) for r in radii]
            qb = cs.quotient_bound(pinch) if space.is_flat else None
            stab = cs.stability_result(kappa1, space, eps)
            out.append((pinch, wb, radii, outers, qb, stab))
        return out

    @staticmethod
    def failed(out) -> bool:
        return False

    def check(self, outs, checks) -> None:
        for i in range(0, min(len(outs), self.POOL), self.CHECK_EVERY):
            if outs[i] is None:
                continue
            for (kind, k, _, kappa1, kappa2, _), (pinch, wb, radii, outers, qb, stab) in zip(
                    self.pool[i], outs[i]):
                checks.check_bound_set(
                    kind, k, kappa1, kappa2, pinch.r1, pinch.r2,
                    wb.bound, wb.maximizer_r, wb.attained_R, radii, outers,
                    None if qb is None else (qb.bound, qb.maximizer_r, qb.attained_R),
                    stab.width_constant, stab.quotient_constant)


class CliParallel:
    """`curvshell verify --flat ... --jobs 2 --report --summary` through cli.main."""

    name = "cli-parallel"
    PINCHES = ((1.0, 1.1), (1.0, 2.0), (1.0, 5.0))
    round_size = len(PINCHES)
    min_ops = round_size
    # Seeds per invocation: small enough for well over 100 ops in a run, so
    # that op_p90_ms has ten ops beyond it.  verify_batch hands out chunks of
    # 16, so all six bodies go to one worker and the other idles: a split
    # that uses both shows here.
    BLOCK = 6
    JOBS = 2
    SERIAL_EVERY = 8                            # on ops 0, 8, 16, ...
    SERIAL_PICK = (0, BLOCK // 2, BLOCK - 1)    # these records are recomputed serially

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.seed_base = int(_rng(seed, 3).integers(2**40)) * 1024
        self.pinches = [cs.PinchSpec.from_curvatures(FLAT, *k) for k in self.PINCHES]

    def seeds(self, i: int) -> range:
        lo = self.seed_base + i * self.BLOCK
        return range(lo, lo + self.BLOCK)

    def paths(self, i: int):
        stem = os.path.join(self.workdir, f"verify-{i}")
        return stem + ".jsonl", stem + ".csv"

    def argv(self, i: int):
        k1, k2 = self.PINCHES[i % self.round_size]
        seeds = self.seeds(i)
        report, summary = self.paths(i)
        return ["verify", "--flat", "--k1", repr(k1), "--k2", repr(k2),
                "--seeds", f"{seeds[0]}..{seeds[-1]}", "--jobs", str(self.JOBS),
                "--report", report, "--summary", summary]

    @staticmethod
    def keeps(i: int) -> bool:
        return True

    def op(self, i: int, tr):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(i))
        return code, buf.getvalue()

    @staticmethod
    def failed(out) -> bool:
        return out[0] != 0

    def check(self, outs, checks) -> None:
        serial_path = os.path.join(self.workdir, "serial.jsonl")
        for i, out in enumerate(outs):
            if out is None:
                continue
            code, stdout = out
            checks.require(code == 0, f"verify op {i} exited {code}")
            checks.require(stdout.startswith(f"{self.BLOCK}/{self.BLOCK} satisfied"),
                           f"verify op {i} printed {stdout.splitlines()[:1]}")
            report, summary = self.paths(i)
            with open(report) as fh:
                lines = fh.read().splitlines()
            with open(summary) as fh:
                checks.check_summary_csv(fh.read(), self.BLOCK)
            seeds = self.seeds(i)
            checks.check_report(lines, seeds)
            k1, k2 = self.PINCHES[i % self.round_size]
            for ln in lines:
                rec = json.loads(ln)
                checks.check_flat_shell_bounds(rec["r"], rec["R"], k1, k2)
            if i % self.SERIAL_EVERY == 0:
                picked = [seeds[j] for j in self.SERIAL_PICK]
                cs.write_jsonl(cs.verify_batch(self.pinches[i % self.round_size], picked, jobs=1),
                               serial_path)
                with open(serial_path) as fh:
                    serial = fh.read().splitlines()
                for j, want in zip(self.SERIAL_PICK, serial):
                    checks.check_same_bytes(lines[j], want, f"report line for seed {seeds[j]}")

    def pool_efficiency(self, parallel_s: dict, n: int = 3) -> float:
        """Serial body time / (jobs x batch wall time), median over the first n ops.

        parallel_s maps op number to its traced verify_batch time.
        """
        ratios = []
        for i in sorted(parallel_s)[:n]:
            t0 = perf_counter()
            cs.verify_batch(self.pinches[i % self.round_size], self.seeds(i), jobs=1)
            ratios.append((perf_counter() - t0) / (self.JOBS * parallel_s[i]))
        return float(np.median(ratios))


WORKLOADS = {w.name: w for w in (FlatRandom, SpindleFamily, BoundsSweep, CliParallel)}
