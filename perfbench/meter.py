"""Speed meter: scales measured times to a machine of fixed speed.

The speed of a shared virtual machine changes in phases of a fraction
of a second to a few seconds, by up to a factor of two, and CPU time
changes with it.  So while a run measures, a SIGALRM handler times a
fixed piece of interpreter work every TICK_S.  The handler runs in the
main thread between bytecodes, so the run stays one thread and one
operation at a time.

A timed sample is (start, end, seconds): the bounds of the batch it
was measured in, and its own wall time.  seconds() removes the
handler's share of the batch and scales by REFERENCE_S over the mean
reference time in a window of at least WINDOW_S around the batch: the
result reads as seconds on a machine whose reference loop always takes
REFERENCE_S.
"""

import bisect
import gc
import signal
from time import perf_counter

TICK_S = 0.005
WINDOW_S = 0.02
# reference loop time of the machine that timings are scaled to
REFERENCE_S = 1e-04

_SET = frozenset(range(0, 3000, 3))
_MAP = {i: 7 * i for i in range(0, 3000, 2)}


def reference_s():
    """Seconds for a fixed mix of the work the package's graph code
    does: set and dict lookups with integer arithmetic, then building
    a small dict of sets.  Of the loops tried, this mix followed the
    package's own slowdowns most closely.  The collector is off
    meanwhile, so that no collection lands in the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(600):
            if i in _SET:
                acc += _MAP.get(i, 1)
            else:
                acc ^= i
        adj = {}
        for i in range(250):
            adj.setdefault(i % 25, set()).add(i * 7 % 100)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    def __init__(self):
        self.times = []           # when each reference loop started
        self.refs = []            # its seconds
        self.spent = []           # seconds the handler took, the loop included

    def _tick(self, *_):
        t = perf_counter()
        try:
            ref = reference_s()
        except RecursionError:    # the tick landed at the bottom of a deep recursion
            return
        self.times.append(t)
        self.refs.append(ref)
        self.spent.append(perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """Stop the ticks, after sampling long enough that the last
        batch has a full window."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        end = perf_counter() + WINDOW_S / 2
        while perf_counter() < end:
            self._tick()

    def _span(self, lo, hi):
        return bisect.bisect_left(self.times, lo), bisect.bisect_right(self.times, hi)

    def seconds(self, sample):
        """Scaled seconds of one (start, end, seconds) sample."""
        start, end, dt = sample
        a, b = self._span(start, end)
        handler_share = sum(self.spent[a:b]) / (end - start) if end > start else 0.0
        half = max(end - start, WINDOW_S) / 2
        mid = (start + end) / 2
        a, b = self._span(mid - half, mid + half)
        if a == b:
            raise RuntimeError("no speed sample near a timed batch")
        mean_ref = sum(self.refs[a:b]) / (b - a)
        return dt * max(0.0, 1.0 - handler_share) * REFERENCE_S / mean_ref
