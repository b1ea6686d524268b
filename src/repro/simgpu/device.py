"""The simulated GPU device: engines + context residency + memory.

The device ties together the three engines, arbitrates *context residency*
(the driver-level multiplexing of host processes that Strings' context
packing avoids), tracks device-memory allocations, and exposes a single
``submit`` entry point used by the simulated CUDA runtime.

Residency semantics (matching CUDA >= 4.0 on Fermi):

* at most one context's work executes on the device at any instant;
* operations of the resident context run concurrently across engines and
  streams (space + engine sharing);
* when other contexts wait, the resident context is switched out once its
  in-flight operations drain or its driver time-slice expires, paying
  ``spec.ctx_switch_s`` — the "glitches" of paper Fig. 2.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Union

from repro.sim import Environment, Event
from repro.simgpu.context import GpuContext, GpuStream
from repro.simgpu.engine import CopyEngine, SharedComputeEngine
from repro.simgpu.ops import CopyKind, CopyOp, KernelOp
from repro.simgpu.specs import DeviceSpec
from repro.simgpu.trace import BusyTracer

_ptr_ids = itertools.count(0x1000)


class GpuOutOfMemoryError(MemoryError):
    """cudaMalloc exceeded the device's memory capacity."""


class GpuDevice:
    """One simulated GPU.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Hardware description (see :mod:`repro.simgpu.specs`).
    trace:
        Record one busy interval per kernel and copy op, for utilization
        timelines (Fig. 2) and :meth:`busy_fraction`.  Off by default:
        the engines' busy accounting needs no tracer.
    """

    def __init__(self, env: Environment, spec: DeviceSpec, trace: bool = False) -> None:
        self.env = env
        self.spec = spec
        self.tracer: Optional[BusyTracer] = BusyTracer() if trace else None
        self.compute = SharedComputeEngine(env, spec, tracer=self.tracer)
        self.h2d_engine = CopyEngine(env, spec, "h2d", tracer=self.tracer)
        if spec.copy_engines >= 2:
            self.d2h_engine = CopyEngine(env, spec, "d2h", tracer=self.tracer)
        else:
            # Single DMA engine: both directions share one queue.
            self.d2h_engine = self.h2d_engine

        # -- context residency arbitration ---------------------------------
        self._resident: Optional[GpuContext] = None
        self._resident_since = 0.0
        self._inflight = 0
        self._switching = False
        #: ctx -> list of grant events, in context arrival order.
        self._waiting: "OrderedDict[GpuContext, List[Event]]" = OrderedDict()

        # -- memory ----------------------------------------------------------
        self._allocated = 0

        # -- statistics --------------------------------------------------------
        self.ctx_switches = 0
        self.kernels_completed = 0
        self.copies_completed = 0
        #: Live contexts, in creation order.
        self.contexts: List[GpuContext] = []

        # -- observability -----------------------------------------------------
        self.track = f"gpu:{spec.name}"
        self.set_track(self.track)

    def set_track(self, label: str) -> None:
        """Name this device's trace tracks (e.g. ``GPU3`` once the gPool
        assigns a global id); engines become ``<label>/SM``, ``/H2D``..."""
        self.track = label
        self.compute.track = f"{label}/SM"
        if self.d2h_engine is self.h2d_engine:
            self.h2d_engine.track = f"{label}/DMA"
        else:
            self.h2d_engine.track = f"{label}/H2D"
            self.d2h_engine.track = f"{label}/D2H"

    # -- context management ----------------------------------------------------

    def create_context(self, owner: Any) -> GpuContext:
        """Create a context for a host process (first CUDA call from it)."""
        ctx = GpuContext(self, owner)
        self.contexts.append(ctx)
        return ctx

    def destroy_context(self, ctx: GpuContext) -> None:
        """Tear a context down, releasing all its device memory."""
        for ptr in list(ctx.allocations):
            self.free(ctx, ptr)
        if not ctx.destroyed:
            self.contexts.remove(ctx)
        ctx.destroyed = True
        if ctx in self._waiting and not self._waiting[ctx]:
            del self._waiting[ctx]
        if self._resident is ctx and self._inflight == 0:
            self._resident = None
            self._try_switch()

    @property
    def resident_context(self) -> Optional[GpuContext]:
        """The context currently owning the device (None if idle & free)."""
        return self._resident

    # -- memory ------------------------------------------------------------------

    def malloc(self, ctx: GpuContext, nbytes: int) -> int:
        """Allocate device memory; returns an opaque pointer id."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._allocated + nbytes > self.spec.mem_capacity_bytes:
            raise GpuOutOfMemoryError(
                f"{self.spec.name}: cannot allocate {nbytes} bytes "
                f"({self._allocated} of {self.spec.mem_capacity_bytes} in use)"
            )
        ptr = next(_ptr_ids)
        ctx.allocations[ptr] = nbytes
        self._allocated += nbytes
        return ptr

    def free(self, ctx: GpuContext, ptr: int) -> None:
        """Release device memory allocated by ``malloc``."""
        nbytes = ctx.allocations.pop(ptr, None)
        if nbytes is None:
            raise ValueError(f"pointer {ptr:#x} is not allocated in {ctx!r}")
        self._allocated -= nbytes

    @property
    def allocated_bytes(self) -> int:
        """Device memory currently allocated across all contexts."""
        return self._allocated

    # -- work submission ------------------------------------------------------------

    def submit(self, stream: GpuStream, op: Union[KernelOp, CopyOp]) -> Event:
        """Issue ``op`` on ``stream``; returns its completion event.

        The op is a callback chain, not a process: once the stream's
        previous op is done it (1) acquires context residency, (2) runs on
        the appropriate engine, (3) releases residency and fires the
        returned event with the engine's completion record (a dict with
        the op, start/finish times and solo time).
        """
        ctx = stream.context
        if ctx.destroyed:
            raise RuntimeError(f"context {ctx.ctx_id} has been destroyed")
        done = self.env.event()
        predecessor = stream.chain(done)
        if predecessor is not None and not predecessor.processed:
            predecessor.callbacks.append(lambda _prev: self._issue(ctx, op, done))
        else:
            self._issue(ctx, op, done)
        return done

    def _issue(self, ctx: GpuContext, op: Union[KernelOp, CopyOp], done: Event) -> None:
        """Claim residency for ``op``; start it on its engine once granted."""
        self._acquire(ctx).callbacks.append(lambda _grant: self._start(op, done))

    def _start(self, op: Union[KernelOp, CopyOp], done: Event) -> None:
        self._engine_for(op).execute(op).callbacks.append(
            lambda finished: self._complete(op, done, finished.value)
        )

    def _complete(self, op: Union[KernelOp, CopyOp], done: Event, record: dict) -> None:
        if isinstance(op, KernelOp):
            self.kernels_completed += 1
        else:
            self.copies_completed += 1
        # Fire first, then release: a switch the release starts is
        # scheduled behind the op's completion.
        done.succeed(record)
        self._release()

    def _engine_for(self, op: Union[KernelOp, CopyOp]):
        if isinstance(op, KernelOp):
            return self.compute
        if op.kind is CopyKind.H2D:
            return self.h2d_engine
        return self.d2h_engine

    # -- residency arbitration ---------------------------------------------------------

    def _acquire(self, ctx: GpuContext) -> Event:
        """Claim residency for one op of ``ctx``; event fires when granted."""
        grant = self.env.event()
        now = self.env.now

        if self._switching:
            self._waiting.setdefault(ctx, []).append(grant)
            return grant

        if self._resident is None or self._resident is ctx:
            if self._resident is ctx and self._expired(now) and self._other_waiters(ctx):
                # Driver time-slice spent and another context is waiting:
                # this op queues behind the switch.
                self._waiting.setdefault(ctx, []).append(grant)
                if self._inflight == 0:
                    self._try_switch()
                return grant
            if self._resident is not ctx:
                self._resident = ctx
                self._resident_since = now
            self._inflight += 1
            grant.succeed()
            return grant

        self._waiting.setdefault(ctx, []).append(grant)
        if self._inflight == 0:
            self._try_switch()
        return grant

    def _expired(self, now: float) -> bool:
        return (now - self._resident_since) >= self.spec.ctx_slice_s

    def _other_waiters(self, ctx: GpuContext) -> bool:
        return any(c is not ctx and evs for c, evs in self._waiting.items())

    def _release(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and any(self._waiting.values()):
            self._try_switch()

    def _try_switch(self) -> None:
        """Device drained: hand residency to the longest-waiting context."""
        if self._switching or self._inflight > 0:
            return
        next_ctx: Optional[GpuContext] = None
        for c, evs in self._waiting.items():
            if evs:
                next_ctx = c
                break
        if next_ctx is None:
            return
        self._switching = True
        if self._resident is not None and self._resident is not next_ctx:
            self.ctx_switches += 1
            delay = self.spec.ctx_switch_s
        else:
            # First residency, or re-granting the same context after its
            # slice expired with no other waiters remaining: free.
            delay = 0
        self.env.timeout(delay).callbacks.append(lambda _t: self._switched(next_ctx))

    def _switched(self, ctx: GpuContext) -> None:
        """The switch to ``ctx`` is done: grant its waiting ops."""
        self._switching = False
        self._resident = ctx
        self._resident_since = self.env.now
        grants = self._waiting.pop(ctx, [])
        self._inflight += len(grants)
        for g in grants:
            if not g.triggered:
                g.succeed()
            else:  # pragma: no cover - defensive (cancelled grants)
                self._inflight -= 1

    # -- utilization --------------------------------------------------------------------

    def busy_fraction(self, t0: float, t1: float) -> float:
        """Fraction of [t0, t1) with *any* engine busy (requires tracing)."""
        if self.tracer is None:
            raise RuntimeError("device was created with trace=False")
        return self.tracer.busy_fraction(t0, t1)

    def __repr__(self) -> str:
        return f"<GpuDevice {self.spec.name!r}>"


__all__ = ["GpuDevice", "GpuOutOfMemoryError"]
