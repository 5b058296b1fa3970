"""Outside-in tracing of the solver's layers.

The package is not edited: each layer's public functions are wrapped at
the module attribute where their caller looks them up, for example
``outer.solve_meanfield_bsde`` and ``oracle.solve_meanfield_bsde`` are two
separate bindings of one function.  A wrapper records a span (name, start,
end, parent) in memory; nothing is written until the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

# (module, attribute looked up by the caller, span name).  The span name's
# prefix is the layer: the module that defines the function.
WRAP_POINTS = (
    ("outer", "realize", "model.realize"),
    ("outer", "validate_h1_h2", "model.validate"),
    ("outer", "solve_riccati", "riccati.solve"),
    ("outer", "probe_operators", "multipliers.probe"),
    ("multipliers", "solve_decoupled", "multipliers.decoupled"),
    ("outer", "solve_constrained_problem", "multipliers.constrained"),
    ("outer", "solve_outer_system", "multipliers.outer_system"),
    ("outer", "constrained_solution_at", "multipliers.final_solve"),
    ("outer", "assemble_outer_quadratic", "outer.quadratic"),
    ("outer", "solve_meanfield_bsde", "bsde.meanfield"),
    ("oracle", "solve_meanfield_bsde", "bsde.meanfield"),
    ("multipliers", "solve_forward_sde", "bsde.forward"),
    ("oracle", "solve_forward_sde", "bsde.forward"),
    ("outer", "smp_stationarity_residual", "oracle.stationarity"),
    ("oracle", "cost_gradient", "oracle.gradient"),
)

# Spans whose tracemalloc peak is measured in the memory pass.  None of them
# runs inside another, so one peak counter serves all three.
PEAK_SPANS = ("multipliers.probe", "outer.quadratic", "oracle.solve")

LAYERS = ("model", "riccati", "multipliers", "outer", "bsde", "oracle")


class Recorder:
    """Holds the spans of one traced pass; ``span`` is a context manager."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.peaks = {}          # span name -> tracemalloc peak, bytes
        self.measure_peaks = False

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else None
        self.index = len(rec.spans)
        rec.spans.append([self.name, 0.0, 0.0, parent])
        rec._stack.append(self.index)
        if rec.measure_peaks and self.name in PEAK_SPANS:
            tracemalloc.reset_peak()
        rec.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index][2] = time.perf_counter()
        rec._stack.pop()
        if rec.measure_peaks and self.name in PEAK_SPANS:
            peak = tracemalloc.get_traced_memory()[1]
            rec.peaks[self.name] = max(rec.peaks.get(self.name, 0), peak)
        return False


class Instrumentation:
    """Installs the wrappers on the package modules and removes them again."""

    def __init__(self, mfbslq, recorder: Recorder):
        self._saved = []
        for module_name, attr, span_name in WRAP_POINTS:
            module = getattr(mfbslq, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


def summarize(rec: Recorder) -> dict:
    """Per-span-name totals: calls, total seconds and self seconds."""
    own = rec.self_times()
    out = {}
    for (name, start, end, _), self_s in zip(rec.spans, own):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
    return out
