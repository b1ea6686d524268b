"""The simulation environment: clock + event queue + run loop."""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple, Union

import repro.telemetry as _telemetry
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventPriority,
    Timeout,
)
from repro.sim.process import Process, ProcessExit


class SimulationError(RuntimeError):
    """An unhandled failure escaped to the simulation run loop."""


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


#: Queue entries are ``(time, priority, sequence, event)``; the sequence
#: number makes ordering total and deterministic.
_QueueEntry = Tuple[float, int, int, Event]


class Environment:
    """Execution environment for a single simulation run.

    The environment owns the simulated clock (:attr:`now`, a float in
    *seconds* throughout this project) and the pending-event queue, and
    provides factories for events, timeouts and processes.

    ``telemetry`` is the run's observability registry (see
    :mod:`repro.telemetry`): pass a :class:`~repro.telemetry.Telemetry` to trace the
    run, or leave it unset to use the process-wide default — the no-op
    null registry unless a harness installed a real one.

    Examples
    --------
    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(5.0)
    ...     return env.now
    >>> proc = env.process(hello(env))
    >>> env.run()
    >>> proc.value
    5.0
    """

    def __init__(self, initial_time: float = 0.0, telemetry=None) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueEntry] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Cumulative events dispatched by :meth:`step` — a plain int
        #: kernel-health counter (one integer add per event) that the
        #: interval sampler turns into registry gauges/series (ISSUE 9);
        #: the null path never touches the registry for it.
        self.events_processed = 0
        self.telemetry = telemetry if telemetry is not None else _telemetry.current()
        self.telemetry.attach(self)

    # -- clock & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def queue_depth(self) -> int:
        """Number of events currently scheduled (kernel-health gauge)."""
        return len(self._queue)

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        event: Event,
        priority: EventPriority = EventPriority.NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Enqueue ``event`` to be processed after ``delay``."""
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, int(priority), self._eid, event))

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    @staticmethod
    def exit(value: Any = None) -> None:
        """Terminate the calling process, making ``value`` its result."""
        raise ProcessExit(value)

    # -- execution -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event (advancing the clock to it)."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.events_processed += 1

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            exc = event._value
            raise SimulationError(
                f"unhandled failure in simulation at t={self._now}: {exc!r}"
            ) from exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue is exhausted;
            * a number — run until the clock reaches that time;
            * an :class:`Event` — run until the event is processed, and
              return its value (re-raising its failure, if any).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Timeout(self, at - self._now)

        if stop is not None:
            watched = stop

            if watched.callbacks is None:  # already processed
                if not watched._ok and not watched.defused:
                    raise watched._value
                return watched._value

            done = {"flag": False}

            def _halt(_evt: Event) -> None:
                done["flag"] = True

            watched.callbacks.append(_halt)
            while not done["flag"]:
                try:
                    self.step()
                except EmptySchedule:
                    raise SimulationError(
                        "event queue ran dry before the 'until' event triggered"
                    ) from None
            if not watched._ok and not watched.defused:
                raise watched._value
            return watched._value

        while self._queue:
            self.step()
        return None


__all__ = ["Environment", "SimulationError"]
