"""In-memory span tracer for the benchmark's traced run.

While `Tracer.patched()` is active, each public function named in TRACED
is replaced by a wrapper that records a span: name, parent span, op
number, start and end.  The wrapper goes into every curvshell namespace
that imports the function (the package itself, where the benchmark calls
it, and the other modules), so calls across module boundaries are
traced.  The defining module keeps the original, so a module's calls of
its own functions are not (width_bound's many calls of
outer_radius_bound, say), except where TRACED marks the function as
called from its own module by code the benchmark reaches
(check_bounds calling inscribed_ball).  Nothing in src/ changes; the
originals are restored on exit.  Spans go to flat arrays and are written
out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

# (reported name, module, attribute, also wrapped in its own module).
# bounds.stability is stability_result, which bundles both stability
# constants; geometry.pinch_from_curvatures is the PinchSpec.from_curvatures
# class method, wrapped on the class.
TRACED = (
    ("bodies.random_pinched_curve", "bodies", "random_pinched_curve", False),
    ("bodies.curvature_range", "bodies", "curvature_range", False),
    ("verify.inscribed_ball", "verify", "inscribed_ball", True),
    ("verify.circumscribed_from_center", "verify", "circumscribed_from_center", True),
    ("verify.rolling_check", "verify", "rolling_check", False),
    ("verify.verify_batch", "verify", "verify_batch", False),
    ("verify.write_jsonl", "verify", "write_jsonl", False),
    ("bounds.width_bound", "bounds", "width_bound", False),
    ("bounds.outer_radius_bound", "bounds", "outer_radius_bound", False),
    ("bounds.quotient_bound", "bounds", "quotient_bound", False),
    ("bounds.stability", "bounds", "stability_result", False),
    ("geometry.pinch_from_curvatures", "geometry", "PinchSpec.from_curvatures", True),
    ("spindle.build_spindle", "spindle", "build_spindle", False),
    ("spindle.numeric_radii", "spindle", "numeric_radii", False),
    ("cli.main", "cli", "main", True),
)

# Spans the benchmark opens around its own calls: CSV plus SVG export.
BENCH_SPANS = ("export.write_profile",)

LAYERS = tuple(entry[0] for entry in TRACED) + BENCH_SPANS
OP_SPAN = "bench.op"

_NULL = nullcontext()


class NullTracer:
    """Stands in for Tracer in untraced loops; records nothing."""

    def span(self, name):
        return _NULL

    def begin_op(self, i: int) -> None:
        return None

    def close(self, idx) -> None:
        pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []  # indices of the open spans
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def begin_op(self, i: int) -> int:
        """Open the root span of op i; spans opened until its close() belong to it."""
        self._op = i
        return self._open(self._name_id(OP_SPAN))

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextmanager
    def patched(self):
        """Route every traced function through a span-recording wrapper."""
        mods = [m for n, m in sys.modules.items()
                if n == "curvshell" or n.startswith("curvshell.")]
        undo = []
        try:
            for name, module, attr, in_home in TRACED:
                home = sys.modules[f"curvshell.{module}"]
                if "." in attr:  # a class method
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(name, orig.__func__)))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(name, orig)
                for mod in mods:
                    if mod is home and not in_home:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    # -- results --------------------------------------------------------

    def _arrays(self):
        """(name ids, op numbers, durations, self times) of all spans."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32), dur, dur - child)

    def layer_stats(self, n_ops: int) -> dict:
        """Per-layer p50/p90 span length (ms), total self time (s) and calls per op.

        A layer that was never entered reports zeros.
        """
        names, _, dur, self_t = self._arrays()
        out = {}
        for layer in LAYERS:
            mask = names == self._ids.get(layer, -1)
            n = int(mask.sum())
            d = dur[mask] * 1e3
            out[f"{layer}.p50_ms"] = (float(np.percentile(d, 50)) if n else 0.0, "ms")
            out[f"{layer}.p90_ms"] = (float(np.percentile(d, 90)) if n else 0.0, "ms")
            out[f"{layer}.self_s"] = (float(self_t[mask].sum()), "s")
            out[f"{layer}.calls"] = (n / n_ops, "calls/op")
        return out

    def durations(self, layer: str) -> dict:
        """{op number: total span length in s} of one layer's spans."""
        names, ops, dur, _ = self._arrays()
        mask = names == self._ids.get(layer, -1)
        out: dict[int, float] = {}
        for i, d in zip(ops[mask], dur[mask]):
            out[int(i)] = out.get(int(i), 0.0) + float(d)
        return out

    def write(self, path) -> None:
        """Spans as gzipped TSV: op, span, parent, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.end)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
