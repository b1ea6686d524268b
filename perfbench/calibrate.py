"""Reference-speed calibration: host seconds normalised to a fixed kernel.

The shared host this benchmark runs on drifts in speed by tens of
percent within seconds, for the simulator and for any other interpreter
work alike.  :func:`kernel` is a fixed miniature discrete-event loop
(heap-ordered timeouts, generator processes, callback lists, lookups in
a table small enough to stay in cache) written here, independent of
``repro``.  The garbage collector is off while it runs, so collections
over the simulator's heap are never billed to a sample, and it frees
everything it allocates before it returns.

While a :class:`Calibrator` is active, an interval timer interrupts the
measured work every ``INTERVAL_S`` and the signal handler runs one kernel
call.  The handler's own time is taken out of the measured wall time,
and the rest is scaled by ``NOMINAL_S / (mean kernel call time)``: host
seconds expressed at the reference speed, at which one kernel call takes
``NOMINAL_S``.  The sampling happens inside the measured interval, so the
scale reflects the speed the work itself ran at.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter

#: Seconds one kernel call takes at the reference host speed (a typical
#: phase of a 2.1 GHz Xeon VM).  A constant: it scales every figure the
#: same way and never changes between two commits being compared.
NOMINAL_S = 0.0016
#: Host seconds between two kernel calls (~5% of the measured time).
INTERVAL_S = 0.025

#: Zone name of the samples when a zone profiler is attached.
CALIBRATION_ZONE = "calibration"

#: 4k slots of lookup state (~160 kB of int objects).
_TABLE = list(range(1 << 16, (1 << 16) + (1 << 12)))


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value) -> None:
        self.callbacks = []
        self.value = value


def _process(schedule, i: int, steps: int, totals: dict):
    x = (i * 2654435761) & 0xFFFF
    for k in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = yield schedule((x % 1000) / 1000.0, _TABLE[x & 0xFFF] + k)
        totals[i % 64] = totals.get(i % 64, 0) + v


def kernel(processes: int = 10, steps: int = 100) -> int:
    """One calibration call: 1,000 timeouts through 10 generator processes."""
    queue: list = []
    clock = [0.0, 0]

    def schedule(delay: float, value=None) -> _Event:
        ev = _Event(value)
        clock[1] += 1
        heapq.heappush(queue, (clock[0] + delay, clock[1], ev))
        return ev

    def start(gen) -> None:
        def resume(ev) -> None:
            try:
                nxt = gen.send(ev.value)
            except StopIteration:
                return
            nxt.callbacks.append(resume)

        schedule(0.0).callbacks.append(resume)

    totals: dict = {}
    for i in range(processes):
        start(_process(schedule, i, steps, totals))
    while queue:
        clock[0], _, ev = heapq.heappop(queue)
        callbacks, ev.callbacks = ev.callbacks, None
        for cb in callbacks:
            cb(ev)
    return clock[1]


class Calibrator:
    """Samples the kernel while active; ``with Calibrator() as cal: work``.

    ``cal.reference(wall)`` converts the wall seconds of the work done
    inside the block into reference seconds.  Given a zone profiler,
    each sample opens its own ``CALIBRATION_ZONE`` so that layer self
    times exclude it.
    """

    def __init__(self, perf=None) -> None:
        self.perf = perf
        self.calls = 0
        self.seconds = 0.0
        #: Sampling seconds spent inside the block (part of its wall time).
        self.inside = 0.0

    def _sample(self, signum, frame) -> None:
        if self.perf is not None:
            self.perf.push(CALIBRATION_ZONE)
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        self.seconds += perf_counter() - t0
        if collecting:
            gc.enable()
        self.calls += 1
        if self.perf is not None:
            self.perf.pop()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside = self.seconds
        if self.calls == 0:
            # The work ended before the first sample: take one now.
            self._sample(None, None)

    def scale(self) -> float:
        """Reference seconds per host second over the sampled interval."""
        return NOMINAL_S * self.calls / self.seconds

    def reference(self, wall: float) -> float:
        """Reference seconds for ``wall`` host seconds measured in the block,
        after removing the time the samples themselves took."""
        return (wall - self.inside) * self.scale()
