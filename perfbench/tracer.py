"""Outside-in span tracer for the concave_phase_lab layers.

The tracer changes no file of the package.  It rebinds each traced function
in the module namespace where its callers look it up (``experiments`` calls
``maximal_in_time`` through its own globals, ``maximal`` calls
``propagate_grid`` through its own, and so on), records one span per call,
and restores every attribute on exit.  Spans stay in memory until the run
ends.

A span's self time is its duration minus the time of its direct children.
A child's time runs until the tracer has counted its arguments, so the
tracer's own arithmetic is in no span's self time.  The tracer assumes a
single thread, as the benchmark runs the package (``CPL_THREADS`` unset):
spans opened in worker threads would nest under whatever span is open.
"""
from __future__ import annotations

import functools
import time

import numpy as np

# (module holding the caller's reference, attribute, span name, counter)
# The span name is the layer that owns the function.
BINDINGS = (
    ("cli", "run_experiment", "experiments.run_experiment", None),
    ("experiments", "maximal_in_time", "maximal.maximal_in_time", None),
    ("experiments", "maximal_over_lines", "maximal.maximal_over_lines", None),
    ("experiments", "check_kernel_envelope", "phase.check_kernel_envelope", None),
    ("experiments", "sobolev_norm", "spectral.sobolev_norm", None),
    ("experiments", "lq_mu_norm", "geometry.lq_mu_norm", None),
    ("experiments", "fit_loglog", "fitting.fit_loglog", None),
    ("maximal", "propagate_grid", "spectral.propagate_grid", "points"),
    ("phase", "kernel_grid", "spectral.kernel_grid", "points"),
    ("spectral", "two_phase_batch", "quadrature.two_phase_batch", "batch"),
    ("spectral", "integrate", "quadrature.integrate", None),
    ("spectral", "propagate", "spectral.propagate", None),
)


def batch_radians(P, T, L_of, S_of, interval):
    """Phase-variation bound sum_i W_i of one ``two_phase_batch`` call.

    W_i = |P_i| * span L + |T_i| * span S, with the spans taken between the
    interval endpoints, as in the batch rule's docstring.  Returns
    (number of integrals, sum of W_i).
    """
    P = np.atleast_1d(np.asarray(P, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    ends = np.array([float(interval[0]), float(interval[1])])
    span_l = abs(float(np.diff(np.asarray(L_of(ends), dtype=float))[0]))
    span_s = abs(float(np.diff(np.asarray(S_of(ends), dtype=float))[0]))
    return P.size, float(np.sum(np.abs(P)) * span_l + np.sum(np.abs(T)) * span_s)


def _grid_points(args):
    # propagate_grid(datum, m, x, t) and kernel_grid(lam, m, x, t)
    return int(np.broadcast(np.asarray(args[2]), np.asarray(args[3])).size)


def _batch_counts(args, kwargs):
    names = ("P", "T", "L_of", "S_of", "amplitude", "interval")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return batch_radians(bound["P"], bound["T"], bound["L_of"], bound["S_of"],
                         bound["interval"])


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "counts", "failed")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.counts = {}
        self.failed = False

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self, modules, clock=time.perf_counter):
        self.modules = modules
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []

    def open(self, name):
        span = Span(name, self.clock(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def close(self, span, end=None):
        """End ``span`` at ``end`` (default now); its parent excludes until now."""
        now = self.clock()
        span.end = now if end is None else end
        self._stack.pop()
        parent = span.parent
        if parent is not None:
            parent.child_s += now - span.start
            if "points" in span.counts:
                # samples a maximal-function call passes to the grid evaluator
                parent.counts["evaluated"] = (parent.counts.get("evaluated", 0)
                                              + span.counts["points"])
        self.spans.append(span)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                end = self.clock()
                if counter == "points":
                    span.counts["points"] = _grid_points(args)
                elif counter == "batch":
                    span.counts["integrals"], span.counts["radians"] = \
                        _batch_counts(args, kwargs)
                self.close(span, end)
        return traced

    def __enter__(self):
        for module_name, attr, name, counter in BINDINGS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def layer_metrics(spans, wall_s):
    """Per-layer totals from the closed spans of a traced run of ``wall_s``."""
    agg = {}
    for span in spans:
        row = agg.setdefault(span.name, {"calls": 0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["self_s"] += span.self_s
        row["failed"] += int(span.failed)
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    batch = "quadrature.two_phase_batch"
    for key in ("calls", "integrals", "radians", "self_s"):
        out[f"{batch}.{key}"] = get(batch, key)
    self_s = get(batch, "self_s")
    out[f"{batch}.radians_per_s"] = get(batch, "radians") / self_s if self_s > 0 else 0.0
    for key in ("calls", "self_s", "failed"):
        out[f"quadrature.integrate.{key}"] = get("quadrature.integrate", key)
    for name in ("spectral.propagate_grid", "spectral.kernel_grid"):
        out[name + ".points"] = get(name, "points")
        out[name + ".self_s"] = get(name, "self_s")
    for name in ("spectral.propagate", "spectral.sobolev_norm"):
        out[name + ".calls"] = get(name, "calls")
        out[name + ".self_s"] = get(name, "self_s")
    for name in ("maximal.maximal_in_time", "maximal.maximal_over_lines"):
        calls, evaluated = get(name, "calls"), get(name, "evaluated")
        out[name + ".calls"] = calls
        out[name + ".self_s"] = get(name, "self_s")
        out[name + ".evaluated"] = evaluated
        out[name + ".evaluated_per_call"] = evaluated / calls if calls else 0.0
    for name in ("phase.check_kernel_envelope", "geometry.lq_mu_norm",
                 "fitting.fit_loglog", "experiments.run_experiment"):
        out[name + ".self_s"] = get(name, "self_s")
    covered = sum(row["self_s"] for row in agg.values())
    out["trace.covered_frac"] = covered / wall_s if wall_s > 0 else 0.0
    return out
