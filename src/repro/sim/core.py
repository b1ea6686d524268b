"""The simulation environment: clock + event queue + run loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple, Union

import repro.telemetry as _telemetry
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


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
    def queue_depth(self) -> int:
        """Number of events currently scheduled (kernel-health gauge)."""
        return len(self._queue)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event, priority: int = 1, delay: float = 0.0) -> None:
        """Enqueue ``event`` to be processed after ``delay``.

        ``priority`` is an :class:`~repro.sim.events.EventPriority` value;
        it enters the queue entry as given, with no ``int()`` per event, so
        internal callers pass the plain ints 0 (URGENT) and 1 (NORMAL).
        """
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def relay(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` where a zero-delay event triggered now would run.

        Such an event is queued behind every entry due at the current
        instant and ahead of every later one.  So when no entry is due now
        it would be the next one popped, and ``callback`` runs at once,
        with no event; otherwise it runs from one zero-delay event, as a
        relay :class:`Event` would.

        Exact only when called as the *last action of the last callback*
        of the event being processed: then nothing can be queued or run
        between the call and the pop the relay event would have had.  (A
        callback run at once may itself end by calling :meth:`relay`.)
        """
        queue = self._queue
        if queue and queue[0][0] <= self._now:
            event = Event(self)
            event.callbacks.append(lambda _event: callback())
            event.succeed()
        else:
            callback()

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
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            stop = until
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            stop = Timeout(self, at - self._now)
        # An event's callbacks become None once it is processed.
        while stop.callbacks is not None:
            try:
                self.step()
            except EmptySchedule:
                raise SimulationError(
                    "event queue ran dry before the 'until' event triggered"
                ) from None
        if not stop._ok and not stop.defused:
            raise stop._value
        return stop._value


__all__ = ["Environment", "SimulationError"]
