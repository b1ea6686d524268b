"""Event primitives for the DES kernel.

Events follow the SimPy model: an event is created *pending*, becomes
*triggered* when given a value (success or failure), and is *processed* once
the environment has invoked its callbacks.  Processes wait on events by
``yield``-ing them.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class EventPriority(enum.IntEnum):
    """Scheduling priority for events that trigger at the same sim time.

    Lower values run earlier.  ``URGENT`` starts a process
    (:class:`Initialize`) ahead of the normal events already queued for
    the same instant.  The kernel's own callers pass the plain ints
    (0, 1) to :meth:`~repro.sim.core.Environment.schedule`.
    """

    URGENT = 0
    NORMAL = 1


_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        Owning :class:`~repro.sim.core.Environment`.

    Notes
    -----
    An event carries a *value* once triggered.  Failed events carry an
    exception which is re-raised inside every waiting process unless the
    failure is *defused* (by marking :attr:`defused`).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed.  ``None``
        #: once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set truthy by a handler to stop a failure from crashing the run.
        self.defused: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Sets every slot here instead of calling Event.__init__: a timeout
        # is built on every quantum, slice and op, so the call is worth
        # saving.  Keep the field set in lockstep with Event.__slots__.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        env.schedule(self, 1, delay)  # EventPriority.NORMAL

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a process at its creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, 0)  # EventPriority.URGENT


class Condition(Event):
    """Waits for a boolean combination of other events.

    Subclasses define :meth:`_evaluate`.  A condition succeeds with
    ``None`` (waiters read the members' own values) and fails as soon as
    any of its constituent events fails.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            self.succeed()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate():
            self.succeed()

    def _evaluate(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when *all* of the given events have triggered."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._count >= len(self._events)


class AnyOf(Condition):
    """Triggers when *any* of the given events has triggered."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._count > 0 or not self._events


__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "EventPriority",
    "Initialize",
    "Timeout",
]
