"""Host-speed probe: puts timings taken on a host of varying speed on one scale.

The benchmark shares a host whose speed is not steady: on a 2-vCPU cloud
host the probe's reference computation below took either about 0.4 or about
0.64 ms, switching between the two within a second, and the share of time
spent at each speed drifted from minute to minute.  A pass timed in one such
minute read up to 40% above the same pass timed in another.

While a :class:`Probe` is started, a profiling timer interrupts the process
every ``INTERVAL_S`` of CPU time and times a short fixed reference
computation (a Dijkstra run with ``Fraction`` weights, the library's own kind
of work).  :meth:`Probe.normalise` turns the wall time of an interval into
the time it would have taken at the reference speed ``NOMINAL_PROBE_S``:
probe time inside the interval is removed, and the rest is scaled by the
mean host speed that the probes saw around it.  The speed samples are spread
evenly in time, so their mean is the time-average speed, which is what sets
how long a stretch of work takes.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02  # CPU seconds between probes
# Probe time at the reference speed.  Any constant gives the same ratios
# between runs; this one is about the probe's time at the slower of that
# host's two speeds, so normalised times read close to its wall times.
NOMINAL_PROBE_S = 0.0006
# Probes taken this long before or after an interval also describe it; a
# short call otherwise has too few probes of its own.
MARGIN_S = 0.25


def _reference_graph():
    rng = random.Random(0)
    n = 24
    arcs = [[] for _ in range(n)]
    for u in range(n):
        arcs[u].append(((u + 1) % n, Fraction(rng.randint(1, 30), rng.randint(1, 4))))
        for _ in range(3):
            arcs[u].append((rng.randrange(n), Fraction(rng.randint(1, 30), rng.randint(1, 4))))
    return arcs


_ARCS = _reference_graph()


def reference() -> Fraction:
    """The fixed computation each probe times: one Dijkstra run."""
    dist = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ARCS[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(dist.values())


class Probe:
    def __init__(self) -> None:
        self.starts: list[float] = []  # probe start times, ascending
        self.lengths: list[float] = []  # probe durations
        self.busy = 0.0  # summed probe time
        self._sampling = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # the timer fired inside a probe
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()  # a collection of the caller's garbage is not host speed
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.lengths.append(t1 - t0)
        self.busy += t1 - t0
        self._sampling = False

    def start(self) -> None:
        """Probe now, then every ``INTERVAL_S`` of CPU time until stopped."""
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._sample()

    def clock(self) -> float:
        """``perf_counter`` with the time spent in probes taken out, for
        timing spans while the probe runs."""
        while True:
            busy = self.busy
            now = time.perf_counter()
            if busy == self.busy:  # no probe ran between the two reads
                return now - busy

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds that the interval [t0, t1] of ``perf_counter`` would have
        taken at the reference speed, probe time left out."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(self.lengths[lo:hi])
        near_lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        near_hi = bisect.bisect_left(self.starts, t1 + MARGIN_S)
        near = self.lengths[near_lo:near_hi]
        if not near:  # no probe close by: the nearest one on either side
            near = self.lengths[max(near_lo - 1, 0) : near_hi + 1]
        speed = sum(NOMINAL_PROBE_S / r for r in near) / len(near)
        return (t1 - t0 - busy) * speed
