"""A clock that reads work time in reference seconds.

On a shared host the speed of one core swings by 1.3 to 1.5x within seconds,
as other tenants load its sibling hyperthread; process CPU time swings with
it.  This clock samples the core's current speed while the measured code
runs: every ``PERIOD_S`` a timer signal interrupts the (single-threaded)
process on whatever core it is on, and the handler times a fixed pure-Python
reference loop there.  Between two samples the work is scaled by
``REF_S / loop time``, the loop time taken as the median of the nearby
samples, so an interval reads as the time it would have taken on a core as
fast as the reference machine's uncontended one.  The loops themselves are
excluded.  Wall seconds are kept too (``raw``), net of the loops.

Usage::

    clock = RefClock(); clock.start()
    a = time.perf_counter(); ...; b = time.perf_counter()
    clock.stop()
    clock.seconds(a, b), clock.raw(a, b)
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025   # one sample every 25 ms
LOOP = 3000        # integer steps of the reference loop
FRACTION_STEPS = 25  # and Fraction steps, about 0.6 ms in all
REF_S = 0.00062    # its time on an uncontended core of the reference machine
WINDOW = 3         # samples on each side of an interval whose median sets its speed


def _reference_loop():
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    x = Fraction(1, 3)
    for i in range(FRACTION_STEPS):
        x = (x * x + Fraction(i + 1, 7)) / (x + 1)
        x = Fraction(x.numerator % 10 ** 30 + 1, x.denominator % 10 ** 30 + 1)
    return s


class RefClock:
    def __init__(self):
        self.loops = []   # (start, end) of each reference loop, in time order
        self._starts = []  # start of each gap between two loops
        self._gaps = []    # (start, end, reference seconds per wall second)

    def _sample(self, *_):
        start = time.perf_counter()
        _reference_loop()
        self.loops.append((start, time.perf_counter()))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        loops = self.loops
        durs = [end - start for start, end in loops]
        # gap i runs from the end of loop i to the start of loop i + 1
        self._starts = [end for _, end in loops[:-1]]
        self._gaps = [(loops[i][1], loops[i + 1][0],
                       REF_S / statistics.median(durs[max(0, i + 1 - WINDOW):i + 1 + WINDOW]))
                      for i in range(len(loops) - 1)]

    def _sum(self, a, b, scaled):
        total = 0.0
        i = max(0, bisect.bisect_right(self._starts, a) - 1)
        for lo, hi, factor in self._gaps[i:]:
            if lo >= b:
                break
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0:
                total += overlap * factor if scaled else overlap
        return total

    def seconds(self, a, b):
        """Reference seconds of work between perf_counter readings a and b."""
        return self._sum(a, b, True)

    def raw(self, a, b):
        """Wall seconds between a and b, without the reference loops."""
        return self._sum(a, b, False)

    def speed(self):
        """Median reference-loop time over REF_S: 1.0 on an uncontended core."""
        return statistics.median(end - start for start, end in self.loops) / REF_S
