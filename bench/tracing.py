"""Spans and counters around the calls the program makes between its modules.

The tracer replaces module-level names with wrappers for the length of a
traced operation and puts them back afterwards; nothing in ``src/``
changes.  Each wrapped call records a span (id, parent, operation, name,
start, end, thread CPU time).  Three leaf calls made hundreds of
thousands of times per run -- ``TemporalProfile.sample``, the
``PlaneWave`` constructor and ``cascade.interface_matrix`` -- are
counted, not spanned, so the trace stays small.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter

import timescatter.cascade as cascade_mod
import timescatter.cli as cli_mod
import timescatter.oracle as oracle_mod
from timescatter.media import TemporalProfile
from timescatter.waves import PlaneWave

# (module, attribute, span name).  cli imports its helpers by name, so the
# wrappers go on the names it calls through.
SPANNED = [
    (cli_mod, "parse_config", "cli.parse_config"),
    (cli_mod, "run", "cli.run"),
    (cli_mod, "execute", "cli.execute"),
    (cli_mod, "render_json", "cli.render"),
    (cli_mod, "render_csv", "cli.render"),
    (cli_mod, "scatter_interface", "scatter.scatter_interface"),
    (cli_mod, "boundary_residual", "scatter.boundary_residual"),
    (cli_mod, "coefficients", "scatter.coefficients"),
    (cli_mod, "numeric_rt", "oracle.numeric_rt"),
    (cli_mod, "convergence_study", "oracle.convergence_study"),
    (cli_mod, "cascade_scatter", "cascade.cascade_scatter"),
    (cli_mod, "floquet_exponent", "cascade.floquet_exponent"),
    (oracle_mod, "integrate", "oracle.integrate"),
    (cascade_mod, "cascade_scatter", "cascade.cascade_scatter"),
    (cascade_mod, "floquet_exponent", "cascade.floquet_exponent"),
]

# Per-layer metrics: name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "cli.parse_ms": "ms",
    "cli.execute_self_ms": "ms",
    "cli.render_ms": "ms",
    "cli.write_ms": "ms",
    "cli.output_bytes": "bytes",
    "scatter.interface_calls": "count",
    "scatter.interface_us": "us",
    "scatter.interface_cpu_us": "us",
    "scatter.residual_us": "us",
    "waves.planewave_objects": "count",
    "oracle.integrate_ms": "ms",
    "oracle.rhs_evals": "count",
    "oracle.rhs_us": "us",
    "oracle.switch_rhs_ratio": "ratio",
    "cascade.scatter_ms": "ms",
    "cascade.event_us": "us",
    "cascade.interface_matrix_calls": "count",
    "cascade.floquet_us": "us",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Installs the wrappers and keeps the spans and counts of traced operations."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end, cpu)
        self.counts = Counter()
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._saved = []
        self._lock = threading.Lock()  # the sweep's worker threads count too

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span.  A worker thread's first span hangs off the main thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            self.spans.append((span_id, parent, self.op_id, name, start, end, cpu))

    # -- installation ----------------------------------------------------------

    def install(self):
        tracer = self
        for owner, attr, name in SPANNED:
            original = getattr(owner, attr)

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return tracer.call(_name, _fn, *args, **kwargs)

            self._patch(owner, attr, wrapper)

        sample = TemporalProfile.sample

        def traced_sample(profile, t):
            if getattr(tracer._local, "integrating", False):
                tracer.count("rhs_evals")
                intervals = profile.switch_intervals() or ()
                if any(a < t < b for a, b in intervals):
                    tracer.count("rhs_in_switch")
            return sample(profile, t)

        self._patch(TemporalProfile, "sample", traced_sample)

        post_init = PlaneWave.__post_init__

        def traced_post_init(wave):
            tracer.count("planewave_objects")
            post_init(wave)

        self._patch(PlaneWave, "__post_init__", traced_post_init)

        interface_matrix = cascade_mod.interface_matrix

        def traced_interface_matrix(*args, **kwargs):
            tracer.count("interface_matrix_calls")
            return interface_matrix(*args, **kwargs)

        self._patch(cascade_mod, "interface_matrix", traced_interface_matrix)

        integrate = oracle_mod.integrate  # already the span wrapper

        def integrate_counting(*args, **kwargs):
            self._local.integrating = True
            try:
                return integrate(*args, **kwargs)
            finally:
                self._local.integrating = False

        self._patch(oracle_mod, "integrate", integrate_counting)

        cascade_scatter_wrappers = (cli_mod.cascade_scatter, cascade_mod.cascade_scatter)
        for owner, wrapped in zip((cli_mod, cascade_mod), cascade_scatter_wrappers):

            def cascade_counting(timeline, *args, _fn=wrapped, **kwargs):
                self.count("cascade_events", 2 * len(timeline) - 1)
                return _fn(timeline, *args, **kwargs)

            self._patch(owner, "cascade_scatter", cascade_counting)

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def per_layer(tracer, traced_ops, overhead_pct):
    """Per-layer metrics of a traced run; a layer the workload never calls reads 0."""
    by_name = {}
    children = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
        children.setdefault(span[1], []).append(span)

    def durations(name):
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def mean(values, scale):
        return scale * sum(values) / len(values) if values else 0.0

    def self_times(name):
        out = []
        for span in by_name.get(name, []):
            covered = _union_length([(c[4], c[5]) for c in children.get(span[0], [])], span[4], span[5])
            out.append(span[5] - span[4] - covered)
        return out

    c = tracer.counts
    ops = max(traced_ops, 1)
    integrate_total = sum(durations("oracle.integrate"))
    cascade_total = sum(durations("cascade.cascade_scatter"))
    interface_spans = by_name.get("scatter.scatter_interface", [])
    values = {
        "cli.parse_ms": mean(durations("cli.parse_config"), 1e3),
        "cli.execute_self_ms": mean(self_times("cli.execute"), 1e3),
        "cli.render_ms": mean(durations("cli.render"), 1e3),
        "cli.write_ms": mean(self_times("cli.run"), 1e3),
        "cli.output_bytes": c["output_bytes"] / c["cli_ops"] if c["cli_ops"] else 0.0,
        "scatter.interface_calls": len(interface_spans) / ops,
        "scatter.interface_us": mean(durations("scatter.scatter_interface"), 1e6),
        "scatter.interface_cpu_us": mean([s[6] for s in interface_spans], 1e6),
        "scatter.residual_us": mean(durations("scatter.boundary_residual"), 1e6),
        "waves.planewave_objects": c["planewave_objects"] / ops,
        "oracle.integrate_ms": mean(durations("oracle.integrate"), 1e3),
        "oracle.rhs_evals": c["rhs_evals"] / len(durations("oracle.integrate")) if c["rhs_evals"] else 0.0,
        "oracle.rhs_us": 1e6 * integrate_total / c["rhs_evals"] if c["rhs_evals"] else 0.0,
        "oracle.switch_rhs_ratio": c["rhs_in_switch"] / c["rhs_evals"] if c["rhs_evals"] else 0.0,
        "cascade.scatter_ms": mean(durations("cascade.cascade_scatter"), 1e3),
        "cascade.event_us": 1e6 * cascade_total / c["cascade_events"] if c["cascade_events"] else 0.0,
        "cascade.interface_matrix_calls": c["interface_matrix_calls"] / ops,
        "cascade.floquet_us": mean(durations("cascade.floquet_exponent"), 1e6),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
