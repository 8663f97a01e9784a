"""Host speed, measured by fixed reference work run alongside the benchmark.

The shared hosts this benchmark runs on change speed by a third within
minutes (a Fraction loop's 5-second medians ranged from 9.1 to 15.8 ms over
three minutes on the reference host), far more than the changes the
benchmark must resolve. So the end-to-end times are reported in reference
seconds: each measured interval is multiplied by the reference work's usual
time over its time measured next to it. A change to the program does not
change the reference work, so it moves the figures as it moves the wall time.

There are two kinds of reference work. In-process operations are scaled by
a loop of exact rational arithmetic, like the kernel's. Operations that
start a process (the ``cli`` workload and every set-up) are scaled by the
start of a bare interpreter, which shares their fork, exec and start-up
costs: on the reference host this kept the spread of ten-process medians of
``redjumps compute`` at 0.04 of the median, against 0.10 with the loop.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

# Usual time of one sample on the reference host: 2 cores, Python 3.11.7.
REFERENCE_S = {"loop": 0.0050, "process": 0.060}
EVERY_S = 0.25    # re-measure the host before an operation after this long
WINDOW = 3        # the host speed is the median of the last WINDOW samples


def _unit():
    """Exact rational arithmetic and small-dict churn."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 1200):
        total += Fraction(i % 97, i)
        counts[i % 31] = counts.get(i % 31, 0) + 1
    return total


def loop_sample():
    """Median seconds of three runs of the reference loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _unit()
        times.append(perf_counter() - t0)
    return median(times)


def process_sample():
    """Seconds to start and end a bare interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
    return perf_counter() - t0


SAMPLERS = {"loop": loop_sample, "process": process_sample}


class Clock:
    """Turns measured seconds into reference seconds."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []
        self.factor = 1.0
        self._last = None

    def tick(self):
        """Re-measure the host if EVERY_S has passed since the last time."""
        now = perf_counter()
        if self._last is None or now - self._last >= EVERY_S:
            self.samples.append(SAMPLERS[self.kind]())
            self.factor = REFERENCE_S[self.kind] / median(self.samples[-WINDOW:])
            self._last = perf_counter()

    def scale(self, seconds, before):
        """Reference seconds for an interval that began when the factor was
        ``before``: the host is re-measured, since an operation can outlast
        a change of speed, and the two factors are averaged."""
        self.tick()
        return seconds * (before + self.factor) / 2
