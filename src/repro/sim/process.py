"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Initialize, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class ProcessExit(Exception):
    """Internal control-flow exception; use ``env.exit(value)`` to return."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Process(Event):
    """A coroutine process executing a generator of events.

    The process itself is an event that triggers when the generator
    terminates (its value is the generator's return value) or fails with the
    uncaught exception.

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        A generator yielding :class:`~repro.sim.events.Event` instances.
    name:
        Optional label for diagnostics.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (``None`` while
        #: the process body is executing or once it has terminated).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a dead process or a process from within itself is an
        error.  The interrupted process stops waiting on its current target
        (the target stays valid and may be re-awaited).
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, 0)  # EventPriority.URGENT

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or failure) of ``event``."""
        env = self.env
        env._active_process = self

        # Stop listening on the previous target: an interrupt may arrive
        # while we are still registered on it.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # Mark as defused: the process observes the failure.
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except ProcessExit as exc:
                self._generator.close()
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                err = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = err
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: feed its value straight back in.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


__all__ = ["Process", "ProcessExit"]
