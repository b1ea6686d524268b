"""GPU contexts and streams.

A :class:`GpuContext` is the unit of *protection and residency*: work from
different contexts never executes concurrently on a device and switching
between them costs time (driver multiplexing of host processes).  Strings'
context packing exists precisely to keep one context per device.

A :class:`GpuStream` is the unit of *ordering*: operations issued to one
stream execute in issue order; operations on different streams of the same
context may overlap (compute with copies, or several kernels).  Stream 0 is
the context's default stream.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgpu.device import GpuDevice

_ctx_ids = itertools.count(1)
_stream_ids = itertools.count(1)


class GpuStream:
    """An in-order operation queue within a context."""

    def __init__(self, context: "GpuContext", stream_id: Optional[int] = None) -> None:
        self.context = context
        self.stream_id = stream_id if stream_id is not None else next(_stream_ids)
        #: Completion event of the most recently issued operation.
        self._tail: Optional[Event] = None
        self.ops_issued = 0
        self.destroyed = False

    @property
    def device(self) -> "GpuDevice":
        return self.context.device

    def chain(self, done: Event) -> Optional[Event]:
        """Register ``done`` as the stream's new tail; return the old tail.

        The caller must wait on the returned event (if any) before starting
        its operation — this is what serializes a stream.
        """
        if self.destroyed:
            raise RuntimeError(f"stream {self.stream_id} has been destroyed")
        prev, self._tail = self._tail, done
        self.ops_issued += 1
        return prev

    @property
    def idle(self) -> bool:
        """True when no issued operation is still outstanding."""
        return self._tail is None or self._tail.processed

    def synchronize_event(self) -> Optional[Event]:
        """Event to wait on for all issued work to finish (None if idle)."""
        return None if self.idle else self._tail

    def destroy(self) -> None:
        """Mark the stream unusable (cudaStreamDestroy)."""
        self.destroyed = True

    def __repr__(self) -> str:
        return f"<GpuStream {self.stream_id} ctx={self.context.ctx_id}>"


class GpuContext:
    """A protection domain on one device, owned by one host process."""

    def __init__(self, device: "GpuDevice", owner: Any) -> None:
        self.device = device
        #: Identity of the owning host process (backend process).
        self.owner = owner
        self.ctx_id = next(_ctx_ids)
        self.default_stream = GpuStream(self, stream_id=0)
        self.streams: Dict[int, GpuStream] = {0: self.default_stream}
        #: Device memory allocated by this context, ptr -> nbytes.
        self.allocations: Dict[int, int] = {}
        self.destroyed = False

    def create_stream(self) -> GpuStream:
        """Create a new stream in this context (cudaStreamCreate)."""
        if self.destroyed:
            raise RuntimeError(f"context {self.ctx_id} has been destroyed")
        stream = GpuStream(self)
        self.streams[stream.stream_id] = stream
        return stream

    def destroy_stream(self, stream: GpuStream) -> None:
        """Destroy a stream (cudaStreamDestroy)."""
        stream.destroy()
        self.streams.pop(stream.stream_id, None)

    @property
    def allocated_bytes(self) -> int:
        """Total device memory held by this context."""
        return sum(self.allocations.values())

    def __repr__(self) -> str:
        return (
            f"<GpuContext {self.ctx_id} owner={self.owner!r} "
            f"device={self.device.spec.name!r}>"
        )


__all__ = ["GpuContext", "GpuStream"]
