"""Counted resources and FIFO stores.

These primitives model the contended queues in the simulated stack: a
copy engine's lane is a :class:`Resource`, a backend issue loop's queue
a :class:`Store`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class Resource:
    """A resource with ``capacity`` identical slots, granted in request order.

    A claim is a plain :class:`~repro.sim.events.Event` that succeeds when
    it holds a slot; hand it back to :meth:`release` when done.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous holders (must be >= 1).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        #: Claims currently holding a slot.
        self.users: List[Event] = []
        #: Claims waiting for a slot, oldest first.
        self.queue: Deque[Event] = deque()

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of claims waiting."""
        return len(self.queue)

    def request(self) -> Event:
        """Claim a slot; the returned event triggers when granted."""
        claim = Event(self.env)
        if len(self.users) < self._capacity:
            self.users.append(claim)
            claim.succeed()
        else:
            self.queue.append(claim)
        return claim

    def release(self, claim: Event) -> None:
        """Return ``claim``'s slot and grant it to the oldest waiting claim."""
        self.users.remove(claim)
        if self.queue:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Store:
    """An unbounded FIFO queue of Python objects.

    :meth:`put` never blocks and queues no event; :meth:`get` returns an
    event that triggers with the next item.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Add ``item``: hand it to the oldest waiting getter, else enqueue it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Take the next item; the returned event triggers with the item."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event


__all__ = ["Resource", "Store"]
