"""Time the exact phase-1 simplex on its two heaviest callers and write
the results to a JSON record (default ``BENCH_simplex.json``).

The workloads are the W(n) nullcone LP, ``nullcone_feasible(build_W(n))``
for n = 4..8, and the n = 3 component enumeration,
``enumerate_maximal_components(3)``.  Each comes with its deterministic
work counters, read off ``simplex.Dictionary``: the pivots of the W(n) LP,
and the [solves, pivots] of the enumeration, so that a record compares
across machines.

Every tree is measured in its own child process with PYTHONPATH set to
its ``src`` directory, and the children of the trees alternate, round
after round, so that a drift in the machine's speed reaches every tree
alike.  The record keeps the median wall time of each workload over all
rounds::

    python scripts/bench_simplex.py --tree parent=/path/to/parent/src \\
        --tree change=src --rounds 5 -o BENCH_simplex.json

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

W_NS = range(4, 9)
REPEATS = 3  # timed repeats of each workload per child


def measure():
    """The child: time each workload REPEATS times in this process and
    print {"W": {n: [pivots, times]}, "components": [[solves, pivots], times]}."""
    from bordersub import build_W, enumerate_maximal_components, nullcone_feasible
    from bordersub.simplex import Dictionary

    work = [0, 0]
    real = Dictionary.solve

    def counted(lp):
        before = lp.pivots
        out = real(lp)
        work[0] += 1
        work[1] += lp.pivots - before
        return out

    Dictionary.solve = counted

    def timed(fn, *args):
        times = []
        for _ in range(REPEATS):
            work[:] = [0, 0]
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
        return list(work), times

    out = {"W": {}}
    for n in W_NS:
        (_, pivots), times = timed(nullcone_feasible, build_W(n))
        out["W"][n] = [pivots, times]
    out["components"] = timed(enumerate_maximal_components, 3)
    json.dump(out, sys.stdout)


def run_child(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure"], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC", help="a tree to time (repeatable)")
    ap.add_argument("--rounds", type=int, default=5, help="child processes per tree (default 5)")
    ap.add_argument("-o", "--output", default="BENCH_simplex.json")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        return measure()
    trees = dict(t.split("=", 1) for t in args.tree) or {"src": "src"}
    runs = {label: [] for label in trees}
    for _ in range(args.rounds):
        for label, src in trees.items():
            runs[label].append(run_child(src))
    record = {
        "workloads": {
            "W_lp": "nullcone_feasible(build_W(n)): pivots and median wall ms",
            "components_n3": "enumerate_maximal_components(3): [solves, pivots] and median wall ms",
        },
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "rounds": args.rounds,
        "repeats_per_round": REPEATS,
        "trees": {},
    }
    for label, children in runs.items():
        first = children[0]
        w = {}
        for n, (pivots, _) in first["W"].items():
            times = [t for c in children for t in c["W"][n][1]]
            w[n] = {"pivots": pivots, "median_ms": round(1000 * statistics.median(times), 3)}
        times = [t for c in children for t in c["components"][1]]
        comp = {"work": first["components"][0], "median_ms": round(1000 * statistics.median(times), 3)}
        record["trees"][label] = {"W_lp": w, "components_n3": comp}
    with open(args.output, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for label, tree in record["trees"].items():
        cells = ", ".join(f"W({n}) {v['pivots']} piv {v['median_ms']} ms" for n, v in tree["W_lp"].items())
        comp = tree["components_n3"]
        print(f"{label}: {cells}; components(3) {comp['work']} {comp['median_ms']} ms")


if __name__ == "__main__":
    main()
