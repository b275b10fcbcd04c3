"""Time the exact phase-1 simplex on its two heaviest callers, and the
cone stabilizer's checked basis, and write the results to a JSON record
(default ``BENCH_simplex.json``).

The workloads are the W(n) nullcone LP, ``nullcone_feasible(build_W(n))``
for n = 4..8, the component enumeration at n = 3,
``enumerate_maximal_components(3)``, and best-effort at n = 4, the same
search at n = 4 over the slice of all-distinct triples,
``nullcone._enumerate(4, slice)``, and the cone stabilizer's structure
report, ``cone_stabilizer_structure(n)`` for n = 4..8, 16 and 30.  Each
comes with its deterministic work counters, so that a record compares
across machines: the pivots of the W(n) LP and the [solves, pivots] of
each search, read off ``simplex.Dictionary``, and the basis size dim_full
and the number |U| of unknowns the weight lemma forces to zero for the
cone.

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
CONE_NS = (*range(4, 9), 16, 30)
REPEATS = 3  # timed repeats of each workload per child
SEARCHES = ("components_n3", "components_n4", "slice_n4")  # the workloads timed with [solves, pivots]
WORKLOADS = {
    "W_lp": "nullcone_feasible(build_W(n)): pivots and median wall ms",
    "components_n3": "enumerate_maximal_components(3): [solves, pivots] and median wall ms",
    "components_n4": "enumerate_maximal_components(4, best_effort=True): [solves, pivots] and median wall ms",
    "slice_n4": "nullcone._enumerate(4, all-distinct triples): [solves, pivots] and median wall ms",
    "cone_structure": "cone_stabilizer_structure(n): dim_full, |U| and median wall ms",
}


def measure():
    """The child: time each workload REPEATS times in this process and
    print {"W_lp": {n: [pivots, times]}, "components_n3": [[solves, pivots],
    times], the same for "components_n4" and "slice_n4", "cone_structure":
    {n: [[dim_full, |U|], times]}}."""
    from itertools import product

    from bordersub import build_W, cone_stabilizer_structure, enumerate_maximal_components, nullcone_feasible
    from bordersub.nullcone import _enumerate
    from bordersub.simplex import Dictionary
    from bordersub.stabilizer import _unit_forced

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
            result = fn(*args)
            times.append(time.perf_counter() - start)
        return result, times

    out = {"W_lp": {}, "cone_structure": {}}
    for n in W_NS:
        _, times = timed(nullcone_feasible, build_W(n))
        out["W_lp"][n] = [work[1], times]
    for name, fn, *args in (
        ("components_n3", enumerate_maximal_components, 3),
        ("components_n4", enumerate_maximal_components, 4, True),
        ("slice_n4", _enumerate, 4, [t for t in product(range(1, 5), repeat=3) if len(set(t)) == 3]),
    ):
        _, times = timed(fn, *args)
        out[name] = [list(work), times]
    for n in CONE_NS:
        rep, times = timed(cone_stabilizer_structure, n)
        out["cone_structure"][n] = [[rep.dim_full, len(_unit_forced(n)[1])], times]
    json.dump(out, sys.stdout)


def run_child(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure"], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def median_ms(cells):
    """The median over every child's times, in ms; cells are [work, times]."""
    return round(1000 * statistics.median(t for _, times in cells for t in times), 3)


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
        "workloads": WORKLOADS,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "rounds": args.rounds,
        "repeats_per_round": REPEATS,
        "trees": {},
    }
    for label, children in runs.items():
        first = children[0]
        w = {
            n: {"pivots": pivots, "median_ms": median_ms([c["W_lp"][n] for c in children])}
            for n, (pivots, _) in first["W_lp"].items()
        }
        searches = {
            name: {"work": first[name][0], "median_ms": median_ms([c[name] for c in children])}
            for name in SEARCHES
        }
        cone = {
            n: {"dim_full": dim, "U": forced, "median_ms": median_ms([c["cone_structure"][n] for c in children])}
            for n, ((dim, forced), _) in first["cone_structure"].items()
        }
        record["trees"][label] = {"W_lp": w, **searches, "cone_structure": cone}
    with open(args.output, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for label, tree in record["trees"].items():
        cells = [f"W({n}) {v['pivots']} piv {v['median_ms']} ms" for n, v in tree["W_lp"].items()]
        cells += [f"{name} {tree[name]['work']} {tree[name]['median_ms']} ms" for name in SEARCHES]
        cells += [f"cone({n}) {v['dim_full']}/{v['U']} {v['median_ms']} ms" for n, v in tree["cone_structure"].items()]
        print(f"{label}: {'; '.join(cells)}")


if __name__ == "__main__":
    main()
