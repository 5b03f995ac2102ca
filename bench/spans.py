"""In-memory span tracer that instruments vortexmem from the outside.

Every public function and public method of the package's modules is
replaced by a wrapper that records a span (name, layer, start, end, parent
span, trace id) in a list.  Nothing under ``src/`` changes: the wrappers
are installed on the imported modules for the traced passes only and the
originals are put back afterwards, so ``cli.main`` runs its real path with
tracing on.

A layer is a module name, except that ``cli`` is split into the stages a
scenario run goes through (see ``CLI_LAYERS``).  A span's self time is its
duration minus the time its direct children cover; since the program is
single-threaded the children nest inside the parent interval, so the self
times of one pass add up to the duration of the pass's root span.

Counters that explain the work done (binomial draws, Bloch projections,
background clamps, repeated bound evaluations, bytes written) are computed
by hooks from the arguments and return values seen at the wrapped call,
never from inside the program.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import math
import os
import statistics
import time
import types
from collections import Counter, defaultdict

MODULES = ("hilbert", "optics", "memory", "photodetection", "tomography",
           "security", "fields", "cli")

# cli functions grouped into the pipeline stage they serve; every other cli
# function (main, run, config loading and validation) is the "cli.main" layer
CLI_LAYERS = {
    "simulate_point": "cli.simulate_point",
    "propagate": "cli.simulate_point",
    "detection_records": "cli.simulate_point",
    "DetectionMixture.survival": "cli.simulate_point",
    "DetectionMixture.signal_per_projector": "cli.simulate_point",
    "render_pgm": "cli.render",
    "render_ppm": "cli.render",
    "render_grid_csv": "cli.render",
    "emit": "cli.emit",
    "read_count_records": "cli.read_count_records",
}

# entering one of these starts a new trace: one per job, per field-map
# state, per record file, and one for writing the outputs
TRACE_ROOTS = {"cli.simulate_point", "fields.vector_field_map",
               "cli.read_count_records", "cli.emit"}

BENCH_LAYER = "bench"

LAYERS = ("optics", "memory", "photodetection", "tomography", "hilbert", "security",
          "fields", "cli.simulate_point", "cli.render", "cli.emit",
          "cli.read_count_records", "cli.main", BENCH_LAYER)


def _layer_of(module: str, qualname: str) -> str:
    if module == "cli":
        return CLI_LAYERS.get(qualname, "cli.main")
    return module


class Tracer:
    """Span store plus counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, layer, start, end, parent, trace_id]
        self.stack: list[int] = []
        self.trace_id = 0
        self.counters: Counter = Counter()
        self.seen_bounds: set = set()
        self.bootstrap_depth = 0
        self.kept: list[list] = []    # spans of the last finished pass

    def begin_pass(self) -> None:
        self.spans = []
        self.stack.clear()
        self.trace_id = 0
        self.counters = Counter()
        self.seen_bounds = set()
        self.bootstrap_depth = 0

    def end_pass(self) -> dict:
        """Close the pass: keep its spans and return its layer totals."""
        self.kept = self.spans
        return layer_totals(self.spans) | {"counters": dict(self.counters)}

    def _open(self, name: str, layer: str) -> list:
        if name in TRACE_ROOTS:
            self.trace_id += 1
        rec = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.trace_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around benchmark code; its self time is the ``bench`` layer."""
        rec = self._open(name, BENCH_LAYER)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        nested_in_bootstrap = name == "tomography.bootstrap_fidelity"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            if nested_in_bootstrap:
                self.bootstrap_depth += 1
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    hook(self, call.arguments, result)
                return result
            finally:
                if nested_in_bootstrap:
                    self.bootstrap_depth -= 1
                self._close(rec)

        return traced

    @contextlib.contextmanager
    def instrumented(self, package):
        """Install wrappers on every vortexmem module; restore on exit."""
        modules = [getattr(package, m) for m in MODULES]
        wrapped: dict[int, object] = {}
        undo: list[tuple[object, str, object]] = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    wrapped[id(val)] = self.wrap(val, f"{short}.{attr}", _layer_of(short, attr))
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for meth, fn in list(vars(val).items()):
                        if meth.startswith("_") or not isinstance(fn, types.FunctionType):
                            continue
                        qual = f"{attr}.{meth}"
                        undo.append((val, meth, fn))
                        setattr(val, meth, self.wrap(fn, f"{short}.{qual}", _layer_of(short, qual)))
        # rebind every module-level reference, including names that one
        # module imported from another (``from .hilbert import named_state``)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and isinstance(val, types.FunctionType):
                    undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path) -> int:
        """Write the last pass's spans as CSV, times relative to its start;
        returns the number of rows.  Earlier passes are summarised by
        ``end_pass`` only, which bounds memory on the 400 000-span passes."""
        t0 = self.kept[0][2] if self.kept else 0.0
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(("span", "name", "layer", "start_s", "end_s", "parent", "trace_id"))
            for sid, (name, layer, start, end, parent, trace) in enumerate(self.kept):
                out.writerow((sid, name, layer, f"{start - t0:.9f}", f"{end - t0:.9f}",
                              parent, trace))
        return len(self.kept)


def layer_totals(spans: list[list]) -> dict:
    """Per-layer call counts and self seconds for one pass's spans."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, layer, start, end, _, _) in enumerate(spans):
        self_s[layer] += (end - start) - child[i]
        if layer != BENCH_LAYER:
            calls[layer] += 1
    return {"self_s": dict(self_s), "calls": dict(calls), "spans": len(spans)}


# --- counters computed at the wrapped call ----------------------------------
#
# Each hook sees the call's bound arguments and its return value.

def _count_draws(tracer, params, result):
    # simulate_counts draws one binomial per returned record
    tracer.counters["photodetection.draws"] += len(result)


def _count_tomograph(tracer, params, result):
    # the bootstrap's inner reconstructions are counted as resamples instead
    if tracer.bootstrap_depth:
        return
    s = result.stokes
    tracer.counters["tomography.projected_base"] += 1
    if math.sqrt(s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2) > 1.0:
        tracer.counters["tomography.projected"] += 1
    if params["subtract_bg"]:
        records = params["records"]
        tracer.counters["tomography.bg_clamp_base"] += len(records)
        tracer.counters["tomography.bg_clamped"] += sum(
            1 for r in records if r.clicks < r.bg_clicks_expected)


def _count_resamples(tracer, params, result):
    tracer.counters["tomography.resamples"] += params["n_resamples"]


def _count_bound(tracer, params, result):
    key = (params["b"].nbar, params["b"].eta)
    tracer.counters["security.repeat_base"] += 1
    if key in tracer.seen_bounds:
        tracer.counters["security.repeats"] += 1
    tracer.seen_bounds.add(key)


def _count_pixels(tracer, params, result):
    tracer.counters["fields.pixels"] += int(result.e_h.size)


def _count_render(tracer, params, result):
    tracer.counters["cli.render.bytes"] += len(result.encode())


def _count_emit(tracer, params, result):
    tracer.counters["cli.emit.files"] += len(result)
    tracer.counters["cli.emit.bytes"] += sum(os.path.getsize(p) for p in result)


HOOKS = {
    "photodetection.simulate_counts": _count_draws,
    "tomography.tomograph": _count_tomograph,
    "tomography.bootstrap_fidelity": _count_resamples,
    "security.classical_bound_with_efficiency": _count_bound,
    "fields.vector_field_map": _count_pixels,
    "cli.render_pgm": _count_render,
    "cli.render_ppm": _count_render,
    "cli.render_grid_csv": _count_render,
    "cli.emit": _count_emit,
}

COUNTS = {
    "photodetection.draws": "count",
    "tomography.resamples": "count",
    "fields.pixels": "count",
    "cli.render.bytes": "B",
    "cli.emit.bytes": "B",
    "cli.emit.files": "count",
}

# ratio name -> (numerator counter, base counter); each base is reported too
RATIOS = {
    "tomography.projected_ratio": ("tomography.projected", "tomography.projected_base"),
    "tomography.bg_clamp_ratio": ("tomography.bg_clamped", "tomography.bg_clamp_base"),
    "security.repeat_ratio": ("security.repeats", "security.repeat_base"),
}

CALL_LAYERS = ("optics", "memory", "photodetection", "tomography", "hilbert",
               "security", "fields")


def per_layer_metrics(pass_totals: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit): medians of self time over
    the traced passes; counts from the last pass, since they repeat exactly
    from pass to pass."""
    last = pass_totals[-1]
    counters = last["counters"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(p["self_s"].get(layer, 0.0) for p in pass_totals), "s")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (last["calls"].get(layer, 0), "count")
    for name, unit in COUNTS.items():
        metrics[name] = (counters.get(name, 0), unit)
    for name, (num, base) in RATIOS.items():
        b = counters.get(base, 0)
        metrics[name] = (counters.get(num, 0) / b if b else 0.0, "ratio")
        metrics[base] = (b, "count")
    metrics["trace.spans"] = (last["spans"], "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
