"""The machine's speed over time, so that timings can be put at one fixed
speed.

The benchmark runs on a few cores of a shared host whose speed drifts in
phases: a fixed pure-Python loop takes anywhere from 1x to 2x its quiet
time, within seconds and for minutes at a time, and CPU time moves with
wall time.  The fastest of a run's repeats does not remove a phase that
lasts the whole run.

A ``Speedometer`` thread runs a fixed reference pass every PERIOD_S and
records the CPU time it took (``thread_time``: time spent waiting for the
interpreter lock or for a core is not counted).  An interval of wall time
[a, b] is then put at the reference speed by

    (b - a - passes inside [a, b]) * REF_S / median(passes started in [a - MARGIN_S, b + MARGIN_S])

so that an operation that costs the same work reads the same in a slow
phase as in a quiet one.  A pass holds the interpreter lock throughout (it
is far shorter than the lock's switch interval), so the program stands
still while it runs, and the wall time of the passes inside [a, b] is
taken out of the interval.

REF_S is the pass's CPU time in a quiet phase of the machine the reference
figures in README.md were measured on, so a value in seconds is that
machine's quiet-phase seconds.  The pass is the benchmark's own code, so a
change to the program cannot move it.  The passes take about 2% of the
process's time.
"""

from __future__ import annotations

import bisect
import random
import statistics
import threading
from time import perf_counter, thread_time

REF_ITERATIONS = 8_000
#: eliminated fraction-free (Bareiss) REF_ELIMINATIONS times a pass
_rng = random.Random("perfbench:reference")
REF_MATRIX = [[_rng.randrange(-(10**6), 10**6) for _ in range(12)] for _ in range(12)]
REF_ELIMINATIONS = 2
#: CPU seconds of one pass in a quiet phase: 0.788 times the 1.15 ms that a
#: 20,000-step integer loop took in the quietest phase seen on a 2-core
#: virtual machine under Python 3.11.7 (the ratio measured side by side)
REF_S = 0.000906
PERIOD_S = 0.05
#: passes this close to an interval count towards its speed: a short
#: operation is judged by about ten passes, still within one phase
MARGIN_S = 0.25


def reference_pass():
    """Half a small-integer loop, half fraction-free elimination of big
    integers, by CPU time.  Over 150 s of repeats in a slow phase, the log
    of an operation's time against the log of the loop's rose with slope
    1.1 for the LP and search operations and 1.3-1.4 for the echelon and
    stabilizer ones; against the elimination's, 0.8 and 1.0.  Against
    the two together every slope lay within 0.96-1.25."""
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    for _ in range(REF_ELIMINATIONS):
        rows = [row[:] for row in REF_MATRIX]
        prev = 1
        for k in range(len(rows) - 1):
            pivot, top = rows[k][k], rows[k]
            for i in range(k + 1, len(rows)):
                f, row = rows[i][k], rows[i]
                rows[i] = [(pivot * row[j] - f * top[j]) // prev for j in range(len(row))]
            prev = pivot
    return s, rows


class Speedometer(threading.Thread):
    """Runs reference passes until ``stop()``; ``scaled(a, b)`` then puts
    the wall interval [a, b] (``perf_counter`` seconds) at REF_S speed."""

    def __init__(self):
        super().__init__(name="perfbench-speedometer", daemon=True)
        self.at = []  # perf_counter at the start of each pass
        self.end = []  # and at its end
        self.cpu = []  # CPU seconds of each pass
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(PERIOD_S):
            t = perf_counter()
            c0 = thread_time()
            reference_pass()
            c1 = thread_time()
            self.end.append(perf_counter())
            self.cpu.append(c1 - c0)
            self.at.append(t)

    def stop(self):
        """Stop the passes; safe to call more than once."""
        self._halt.set()
        self.join()

    def scaled(self, a, b):
        """Seconds that [a, b] would have taken at the reference speed."""
        at, end = self.at, self.end
        i = bisect.bisect_left(at, a - MARGIN_S)
        j = bisect.bisect_right(at, b + MARGIN_S)
        # at least the nearest pass, should the margin hold none
        window = self.cpu[max(0, min(i, len(at) - 1)) : max(j, i + 1)]
        busy = b - a
        for k in range(bisect.bisect_left(end, a), bisect.bisect_left(at, b)):
            busy -= max(0.0, min(end[k], b) - max(at[k], a))
        return busy * REF_S / statistics.median(window)
