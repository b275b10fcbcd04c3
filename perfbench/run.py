#!/usr/bin/env python3
"""Benchmark of bordersub: one workload per run, timed end to end, or traced
layer by layer.

    python3 perfbench/run.py --workload components --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory with the program's defaults (BORDERSUB_THREADS and
BORDERSUB_PURE are removed from the environment).

A run sets up SETUP_REPEATS times (fresh import of bordersub plus input
generation), then runs whole rounds of the workload's operations: one,
and another as long as it is expected to end within ``--seconds``.  A
round that alone outlasts ``--seconds`` is thus never repeated, which
bounds a run's length when the machine is slow.  Every set-up and every
repeat of an operation is put at one fixed machine speed by reference
passes sampled alongside it (speed.py), and each operation's time is the
median of its scaled repeats.  The outputs of the first round are checked
(see workloads.py) and every later round must return the same outputs.

With ``--trace 1`` the rounds alternate between untraced and traced; the
per-layer metrics are the (low) median over traced rounds, and the spans are
written to .perfbench-out/trace-<workload>.json.gz.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from layertrace import Tracer, layer_metrics
from speed import Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 15


def fresh_import():
    """Import bordersub from the checkout, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "bordersub" or m.startswith("bordersub.")]:
        del sys.modules[name]
    bs = importlib.import_module("bordersub")
    if not Path(bs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bordersub imported from {bs.__file__}, not from {SRC}")
    return bs


def setup(workload, seed):
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        bs = fresh_import()
        inputs = workload.inputs(bs, seed)
        spans.append((t0, perf_counter()))
    return bs, inputs, spans


def run_round(ops, tracer):
    """One pass over the operations: their (start, end) wall times and
    their results."""
    gc.collect()
    spans, results = [], []
    for o in ops:
        t0 = perf_counter()
        try:
            r = o.call() if tracer is None else tracer.operation(o.layer, o.call)
        except Exception as exc:  # a failed operation is counted, not fatal
            r = exc
        spans.append((t0, perf_counter()))
        results.append(r)
    return spans, results


def same(a, b):
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b)
    return a == b


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bordersub" / "__init__.py").is_file():
        print(f"perfbench: no bordersub sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("BORDERSUB_THREADS", None)
    os.environ.pop("BORDERSUB_PURE", None)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    # the timed run is measured against the reference loop; the traced run
    # reports CPU times per layer and runs without it
    speedometer = None if args.trace else Speedometer()
    if speedometer is not None:
        speedometer.start()
    try:
        return measure(args, workload, speedometer)
    finally:
        if speedometer is not None:
            speedometer.stop()


def measure(args, workload, speedometer):
    bs, inputs, setup_spans = setup(workload, args.seed)
    ops = workload.operations(bs, inputs)
    print(f"perfbench: {workload.name} seed={args.seed} backend={bs.backend_name()} ops={len(ops)}", file=sys.stderr)

    tracer = Tracer(bs) if args.trace else None
    kinds = (False, True) if args.trace else (False,)
    # an operation may occur more than once in a round; its label names it
    labels = list(dict.fromkeys(o.label for o in ops))
    best = {k: dict.fromkeys(labels, math.inf) for k in kinds}
    repeats = {label: [] for label in labels}  # untraced (start, end) of every successful repeat
    round_s = {k: [] for k in kinds}
    layers = []
    first = None
    attempted = failed = rounds = 0
    problems = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = kinds[rounds % len(kinds)]
        if traced:
            tracer.install()
            mark = len(tracer.spans)
        t0 = perf_counter()
        try:
            spans, results = run_round(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        round_s[traced].append(perf_counter() - t0)
        if traced:
            layers.append(layer_metrics(tracer.spans[mark:]))
        for o, (a, b), r in zip(ops, spans, results):
            attempted += 1
            if isinstance(r, BaseException):
                failed += 1
                if not o.known_fault:
                    problems.append(f"{o.label} raised {type(r).__name__}: {r}")
            else:
                best[traced][o.label] = min(best[traced][o.label], b - a)
                if not traced:
                    repeats[o.label].append((a, b))
        if first is None:
            first = results
        else:
            problems += [f"{o.label} changed between rounds" for o, a, b in zip(ops, first, results) if not same(a, b)]
        rounds += 1
        if rounds % len(kinds) == 0 and perf_counter() + sum(min(round_s[k]) for k in kinds) > deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if speedometer is not None:
        speedometer.stop()

    problems += workload.check(bs, inputs, ops, first)
    for p in dict.fromkeys(problems):
        print(f"perfbench: FAIL {p}", file=sys.stderr)
    print(f"perfbench: {rounds} rounds, untraced {' '.join(f'{t:.3f}' for t in round_s[False])} s", file=sys.stderr)

    fastest = [t for t in best[False].values() if t < math.inf]
    if args.trace:
        per_round = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        overhead = sum(t for t in best[True].values() if t < math.inf) - sum(fastest)
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"} for k, v in per_round.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for m in tracer.missing:
            print(f"perfbench: trace: layer boundary missing: {m}", file=sys.stderr)
        tracer.write(
            str(OUT_DIR / f"trace-{workload.name}.json.gz"),
            {"workload": workload.name, "seed": args.seed, "backend": bs.backend_name(), "ops": [o.label for o in ops]},
        )
    else:
        setup_s = statistics.median(speedometer.scaled(a, b) for a, b in setup_spans)
        solved = [statistics.median(speedometer.scaled(a, b) for a, b in r) for r in repeats.values() if r]
        print(
            f"perfbench: at reference speed: solve {sum(solved):.3f} s, setup {setup_s:.4f} s;"
            f" unscaled: fastest repeats {sum(fastest):.3f} s,"
            f" set-up median {statistics.median(b - a for a, b in setup_spans):.4f} s;"
            f" reference pass median {statistics.median(speedometer.cpu) * 1e3:.3f} ms of {len(speedometer.cpu)}",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": sum(solved), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(solved) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": p90(solved) * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
