"""Span tracing at the layer boundaries of ``bordersub``, for the traced run.

Each module of the package imports a few names from the layer below it.
While a ``Tracer`` is installed those module attributes are replaced by
wrappers that record one span per call: layer, wall start and end, CPU
start and end, parent span and a small record of the work handed over
(rows, constraints, ...).  The benchmark opens one more span around every
timed operation, named after the module of the public function it calls.

Busy and self times are CPU times.  The component enumeration runs on two
worker threads by default, and under the interpreter lock a thread inside
one layer's span is often only waiting for the other thread, so wall-clock
intervals would credit that wait to the wrong layer.  A boundary span
measures its own thread's CPU time; an operation span measures the whole
process's, so an operation's self time is all CPU spent on it, in any
thread, outside the spans of the layers below.

Spans stay in memory and are written out once, when the run ends.  Names
that no longer exist are reported as missing, never as an error, so a
refactor of the package's imports leaves the benchmark running.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
from time import perf_counter, process_time, thread_time

LAYER, START, END, CPU0, CPU1, PARENT, INFO = range(7)


def _rows(args):
    return len(args[0]) if args and isinstance(args[0], (list, tuple)) else 0


def _echelon_info(args, result):
    rows = args[0]
    return (len(rows), len(rows) * (len(rows[0]) if rows else 0), len(result))


def _simplex_info(args, result):
    return (len(args[1]), result is None)


def _linalg_info(fname):
    return lambda args, result: (fname, _rows(args))


#: (module, attribute, layer, info) for every boundary the trace wraps; an
#: attribute "Class.method" wraps a classmethod through a subclass
BOUNDARIES = (
    ("nullcone", "feasible_point", "simplex", _simplex_info),
    ("nullcone", "weight_of", "weights", None),
    ("linalg", "echelon_rows", "kernels.echelon", _echelon_info),
    ("tight", "tight_search", "kernels.tight_search", None),
    ("monomials", "balanced_exists", "kernels.balanced", None),
    ("stabilizer", "rank_int", "linalg", _linalg_info("rank_int")),
    ("stabilizer", "kernel_int", "linalg", _linalg_info("kernel_int")),
    ("stabilizer", "LinearSubspace.from_vectors", "linalg", _linalg_info("from_vectors")),
    ("tight", "kernel_int", "linalg", _linalg_info("kernel_int")),
    ("orbit", "rank_rational", "linalg", _linalg_info("rank_rational")),
    ("orbit", "mat_mul", "linalg", _linalg_info("mat_mul")),
    ("orbit", "mat_inverse", "linalg", _linalg_info("mat_inverse")),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket the
    traced rounds only, so checks and untraced rounds run unwrapped."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.root = None  # the open operation span; parent of worker-thread spans
        self.missing = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, info):
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [layer, 0.0, 0.0, 0.0, 0.0, stack[-1] if stack else self.root, None]
            stack.append(span)
            span[CPU0] = thread_time()
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[CPU1] = thread_time()
                stack.pop()
                spans.append(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def install(self):
        self.missing = []
        for modname, attr, layer, info in BOUNDARIES:
            module = getattr(self.package, modname, None)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            target = getattr(owner, method, None) if method else owner
            if target is None:
                self.missing.append(f"bordersub.{modname}.{attr} ({layer})")
                continue
            wrapped = self._wrap(layer, target, info)
            if method:
                wrapped = type(owner.__name__, (owner,), {method: staticmethod(wrapped)})
            self._saved.append((module, owner_name, owner))
            setattr(module, owner_name, wrapped)

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def operation(self, layer, fn):
        """Run one timed operation inside a span of its own layer."""
        span = [layer, 0.0, 0.0, 0.0, 0.0, None, None]
        self.root = span
        stack = self._stack()
        stack.append(span)
        span[CPU0] = process_time()
        span[START] = perf_counter()
        try:
            return fn()
        finally:
            span[END] = perf_counter()
            span[CPU1] = process_time()
            stack.pop()
            self.spans.append(span)
            self.root = None

    def write(self, path, meta):
        """Spans as gzip'd JSON: [layer, start, end, cpu start, cpu end,
        parent index or null, info], wall times from perf_counter."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [s[:PARENT] + [index.get(id(s[PARENT])), s[INFO]] for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt") as fh:
            json.dump({**meta, "missing": self.missing, "spans": rows}, fh)
        os.replace(tmp, path)


def layer_metrics(spans):
    """Per-layer metrics of one traced round; README.md has the table of
    what each should move."""
    by_layer = {}
    child_cpu = {}
    for s in spans:
        by_layer.setdefault(s[LAYER], []).append(s)
        if s[PARENT] is not None:
            key = id(s[PARENT])
            child_cpu[key] = child_cpu.get(key, 0.0) + s[CPU1] - s[CPU0]

    def of(layer):
        return by_layer.get(layer, ())

    def busy(layer):
        return sum(s[CPU1] - s[CPU0] for s in of(layer))

    def self_time(layer):
        return sum(s[CPU1] - s[CPU0] - child_cpu.get(id(s), 0.0) for s in of(layer))

    def info_sum(layer, pos):
        return sum(s[INFO][pos] for s in of(layer) if s[INFO] is not None)

    def called_from(layer, s):
        return s[INFO] is not None and s[PARENT] is not None and s[PARENT][LAYER] == layer

    return {
        "simplex.calls": len(of("simplex")),
        "simplex.constraints": info_sum("simplex", 0),
        "simplex.infeasible": info_sum("simplex", 1),
        "simplex.busy_s": busy("simplex"),
        "weights.calls": len(of("weights")),
        "weights.busy_s": busy("weights"),
        "nullcone.self_s": self_time("nullcone"),
        "kernels.echelon.calls": len(of("kernels.echelon")),
        "kernels.echelon.rows": info_sum("kernels.echelon", 0),
        "kernels.echelon.cells": info_sum("kernels.echelon", 1),
        "kernels.echelon.rank": info_sum("kernels.echelon", 2),
        "kernels.echelon.busy_s": busy("kernels.echelon"),
        "kernels.tight_search.calls": len(of("kernels.tight_search")),
        "kernels.tight_search.busy_s": busy("kernels.tight_search"),
        "kernels.balanced.calls": len(of("kernels.balanced")),
        "kernels.balanced.busy_s": busy("kernels.balanced"),
        "linalg.calls": len(of("linalg")),
        "linalg.self_s": self_time("linalg"),
        "stabilizer.rows": sum(s[INFO][1] for s in of("linalg") if called_from("stabilizer", s)),
        "stabilizer.self_s": self_time("stabilizer"),
        "tight.self_s": self_time("tight"),
        "orbit.mat_calls": sum(
            1 for s in of("linalg") if s[INFO][0] in ("mat_mul", "mat_inverse") and called_from("orbit", s)
        ),
        "orbit.self_s": self_time("orbit"),
    }
