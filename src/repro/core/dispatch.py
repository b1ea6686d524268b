"""The dispatch gate: the simulation analogue of the RT-signal protocol.

Paper Section IV.B: the Dispatcher keeps each registered backend thread
toggling between *awake* and *asleep* via per-thread Unix real-time
signals, thereby controlling which threads may issue GPU work and for how
long.  Here the gate is a per-entry boolean + waiter list: a session must
``yield gate.permission(entry)`` before issuing each GPU operation, and
the device policy's dispatcher loop flips entries awake/asleep.

In-flight GPU operations are never revoked (kernels are non-preemptive on
Fermi); sleeping a thread only stops it from issuing *further* work —
matching the real mechanism, where the signal parks the backend thread,
not the GPU.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.telemetry.instruments import Counter
from repro.sim import Environment, Event
from repro.core.rcb import GpuPhase, RcbEntry


class DispatchGate:
    """Wake/sleep control over the backend threads of one device.

    Signal deliveries are counted by registry-backed instruments
    (``dispatch.wakes`` / ``dispatch.sleeps``, labelled by GID): the
    counters always count, and are adopted into the run's telemetry
    registry so they show up in metric exports when tracing is on.
    """

    def __init__(self, env: Environment, gid: Optional[int] = None) -> None:
        self.env = env
        labels = {} if gid is None else {"gid": gid}
        self._wakes = Counter("dispatch.wakes", **labels)
        self._sleeps = Counter("dispatch.sleeps", **labels)
        env.telemetry.register(self._wakes)
        env.telemetry.register(self._sleeps)

    @property
    def wakes(self) -> int:
        """Wake signals delivered so far."""
        return int(self._wakes.value)

    @property
    def sleeps(self) -> int:
        """Sleep signals delivered so far."""
        return int(self._sleeps.value)

    @property
    def signals(self) -> int:
        """Total signal deliveries (wakes + sleeps); the sampler's input."""
        return int(self._wakes.value + self._sleeps.value)

    # -- session side ------------------------------------------------------

    def permission(self, entry: RcbEntry, phase: GpuPhase) -> Event:
        """Request permission to issue one op in ``phase``.

        Registers the demand in the RCB entry (so the dispatcher can see
        what phase the thread is in) and returns an event that fires when
        the thread is awake.  The caller must invoke ``entry.issue()``
        after the event fires and before submitting the op.
        """
        entry.demand(phase)
        ev = Event(self.env)
        if entry.awake:
            ev.succeed()
        else:
            entry._waiters.append(ev)
        return ev

    # -- dispatcher side -------------------------------------------------------

    def wake(self, entry: RcbEntry) -> None:
        """Deliver the wake-up signal: release all parked ops."""
        if entry.awake:
            return
        entry.awake = True
        self._wakes.inc()
        waiters, entry._waiters = entry._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def sleep(self, entry: RcbEntry) -> None:
        """Deliver the sleep signal: future ops park at the gate."""
        if not entry.awake:
            return
        entry.awake = False
        self._sleeps.inc()

    def set_awake_exactly(self, entries: Iterable[RcbEntry], awake: Iterable[RcbEntry]) -> None:
        """Make exactly ``awake`` awake among ``entries`` (others sleep)."""
        awake_set = {id(e) for e in awake}
        for e in entries:
            if id(e) in awake_set:
                self.wake(e)
            else:
                self.sleep(e)


__all__ = ["DispatchGate"]
