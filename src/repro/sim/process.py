"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Initialize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


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

    __slots__ = ("_generator", "name")

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
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or failure) of ``event``."""
        env = self.env
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
                break
            # Already processed: feed its value straight back in.
            event = next_event

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


__all__ = ["Process"]
