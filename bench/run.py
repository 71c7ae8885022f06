"""curvshell benchmark: run one workload for a fixed time and print its metrics.

Run from a checkout of the repository, with no install step:

    python3 bench/run.py --workload flat-random --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run instead.  Both check the program's outputs independently
(bench/checks.py) and exit 1 when a check fails.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

MIN_OPS = 100       # a 90th percentile with at least ten ops beyond it
SETUP_SAMPLES = 5   # fresh interpreters whose set-up time is measured; the median is reported
TRACE_BLOCK_S = 2.0  # a traced run alternates traced blocks this long with untraced replays


@dataclass
class Loop:
    wall: float
    latencies: array
    outs: list      # op outputs kept for the checks; None where not kept or the op failed
    failed: int


def load_workloads():
    """Import the workloads against the curvshell sources of this checkout."""
    if not (SRC / "curvshell" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvshell sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS


def timed_loop(wl, tr, seconds: float = 0.0, min_ops: int = 0,
               n_ops: int | None = None, first: int = 0) -> Loop:
    """Run ops first, first + 1, ... for `seconds` (whole rounds, at least
    min_ops of them), or exactly n_ops.

    Only the outputs the workload's checks read are kept, so memory does not
    grow with the number of ops.
    """
    latencies, outs, failed = array("d"), [], 0
    i = first
    t0 = perf_counter()
    while True:
        if n_ops is not None:
            if i - first >= n_ops:
                break
        elif (i % wl.round_size == 0 and i - first >= min_ops
              and perf_counter() - t0 >= seconds):
            break
        start = perf_counter()
        try:
            root = tr.begin_op(i)
            try:
                out = wl.op(i, tr)
            finally:
                tr.close(root)
            latencies.append(perf_counter() - start)
            bad = wl.failed(out)
        except Exception:  # an op that raises counts as failed; the run goes on
            latencies.append(perf_counter() - start)
            print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            bad = True
        if bad:
            failed += 1
        outs.append(out if wl.keeps(i) and not bad else None)
        i += 1
    return Loop(perf_counter() - t0, latencies, outs, failed)


def run_checks(wl, outs) -> bool:
    import checks

    try:
        wl.check(outs, checks)
    except Exception:
        print(f"correctness check failed:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    return True


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(args) -> list:
    """Set-up time of fresh interpreters: imports, input construction, one warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed ({proc.returncode}):\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def end_to_end(wl, args):
    from spans import NullTracer

    loop = timed_loop(wl, NullTracer(), seconds=args.seconds,
                      min_ops=max(MIN_OPS, wl.min_ops))
    rss = peak_rss_mb()
    correct = run_checks(wl, loop.outs)
    setup = sorted(setup_seconds(args))[SETUP_SAMPLES // 2]
    metrics = {
        "ops_per_s": (len(loop.outs) / loop.wall, "ops/s"),
        "op_p50_ms": (percentile_ms(loop.latencies, 50), "ms"),
        "op_p90_ms": (percentile_ms(loop.latencies, 90), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return correct, len(loop.outs), loop.failed, metrics


def traced_run(wl, args):
    from spans import NullTracer, Tracer

    # Each traced block is followed at once by an untraced replay of the same
    # ops, so a drift in the machine's speed hits both sides of the overhead
    # alike.  The traced blocks take half of --seconds, the replays the rest.
    tr = Tracer()
    traced_wall = plain_wall = 0.0
    outs, failed = [], 0
    while traced_wall < args.seconds / 2 or len(outs) < max(MIN_OPS, wl.min_ops):
        with tr.patched():
            block = timed_loop(wl, tr, seconds=TRACE_BLOCK_S, first=len(outs))
        replay = timed_loop(wl, NullTracer(), n_ops=len(block.outs), first=len(outs))
        traced_wall += block.wall
        plain_wall += replay.wall
        failed += block.failed + replay.failed
        outs += replay.outs
    n = len(outs)
    metrics = tr.layer_stats(n)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    pool = getattr(wl, "pool_efficiency", None)
    metrics["verify.pool_efficiency"] = (
        pool(tr.durations("verify.verify_batch")) if pool else 0.0, "ratio")
    tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    correct = run_checks(wl, outs)
    return correct, 2 * n, failed, metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, run one warm-up op, print the seconds taken and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = perf_counter()  # set-up time counts from here: imports, inputs, one warm-up op
    args = parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads)}")
    from spans import NullTracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads[args.workload](args.seed, str(workdir))
        wl.op(0, NullTracer())  # warm-up
        if args.setup_only:
            print(f"{perf_counter() - t_start!r}")
            return 0
        run = traced_run if args.trace else end_to_end
        correct, attempted, failed, metrics = run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
