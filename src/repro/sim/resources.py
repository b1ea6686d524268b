"""Counted resources, priority resources and FIFO stores.

These primitives model the contended hardware and software queues in the
simulated stack: GPU engines, RPC channels, backend worker slots, and the
dispatcher's wake/sleep gates.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple
from collections import deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class PreemptionError(Exception):
    """Raised when a request is cancelled while queued (not used for grants)."""


class Request(Event):
    """A pending (or granted) claim on a :class:`Resource` slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # holding the resource

    Leaving the ``with`` block releases or cancels the claim.
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.key: Tuple[float, int] = (priority, resource._next_seq())
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if granted, or withdraw the queued request."""
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` identical slots and FIFO granting.

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
        self._seq = 0
        #: Requests currently holding a slot.
        self.users: List[Request] = []
        #: Heap of (key, request) waiting for a slot.
        self.queue: List[Tuple[Tuple[float, int], Request]] = []

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

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
        """Number of requests waiting."""
        return len(self.queue)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event triggers when granted.

        ``priority`` is ignored by the base class (FIFO) but honoured by
        :class:`PriorityResource`; it is accepted here so call sites can be
        policy-agnostic.
        """
        return Request(self, priority)

    def _do_request(self, req: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(req)
            req.succeed()
        else:
            heapq.heappush(self.queue, (self._order_key(req), req))

    def _order_key(self, req: Request) -> Tuple[float, int]:
        # Base resource: strict FIFO regardless of priority.
        return (0.0, req.key[1])

    def release(self, req: Request) -> None:
        """Return a slot (or withdraw a queued request)."""
        try:
            self.users.remove(req)
        except ValueError:
            # Still queued (or already released): drop it from the queue lazily.
            self.queue = [(k, r) for (k, r) in self.queue if r is not req]
            heapq.heapify(self.queue)
            return
        self._grant_next()

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            _, req = heapq.heappop(self.queue)
            if req.triggered:  # cancelled while queued
                continue
            self.users.append(req)
            req.succeed()


class PriorityResource(Resource):
    """A resource granting queued requests in ascending ``priority`` order.

    Ties break FIFO.  Lower priority values are served first, matching the
    paper's convention that higher-urgency requests get smaller keys.
    """

    def _order_key(self, req: Request) -> Tuple[float, int]:
        return req.key


class Store:
    """An unbounded (or bounded) FIFO queue of Python objects.

    ``put`` never blocks for unbounded stores; ``get`` returns an event that
    triggers with the next item.  Used for RPC channels and request queues.
    """

    def __init__(self, env: "Environment", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Add ``item``; the returned event triggers once it is enqueued."""
        event = Event(self.env)
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._putters.append((event, item))
            return event
        self._deliver(item)
        event.succeed()
        return event

    def put_nowait(self, item: Any) -> None:
        """Add ``item`` at once, with no event to wait on.

        For callers that never wait on :meth:`put`'s event: that event
        decides nothing but still costs a pass through the event queue.
        A full bounded store raises :class:`OverflowError`.
        """
        if self.capacity is not None and len(self.items) >= self.capacity:
            raise OverflowError("store is full")
        self._deliver(item)

    def _deliver(self, item: Any) -> None:
        # Hand straight to a waiting getter if any, else enqueue.
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self.items.append(item)

    def get(self) -> Event:
        """Take the next item; the returned event triggers with the item."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putters()
        else:
            self._getters.append(event)
        return event

    def _admit_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            put_event, item = self._putters.popleft()
            if put_event.triggered:
                continue
            self._deliver(item)
            put_event.succeed()


__all__ = ["PreemptionError", "PriorityResource", "Request", "Resource", "Store"]
