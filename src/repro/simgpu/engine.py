"""Execution engines of a simulated GPU.

Two engine types exist, mirroring Fermi hardware:

* :class:`SharedComputeEngine` — the SM array.  Kernels belonging to the
  *resident* context space-share it.  Sharing is modelled as processor
  sharing with two interference terms (documented in DESIGN.md):

  1. **SM occupancy** — each kernel asks for ``occupancy`` of the SMs; when
     the sum exceeds 1 every kernel's progress rate is scaled by
     ``1 / total_occupancy``;
  2. **memory bandwidth** — if the co-running kernels' combined bandwidth
     demand exceeds the device's, each kernel is slowed in proportion to
     its own memory-boundedness (a compute-bound kernel co-runs almost
     unharmed next to a bandwidth-bound one — the effect MBF exploits,
     while two bandwidth-bound kernels slow each other down).

  Rates are recomputed at every arrival/departure; kernels carry their
  remaining *solo-seconds* of work between recomputations.

* :class:`CopyEngine` — a DMA engine.  Transfers are FIFO and exclusive;
  devices with two engines give H2D and D2H traffic independent queues so
  copies in both directions and kernel execution can all overlap (the
  concurrency PS and DTF exploit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim import Environment, Event, Resource
from repro.simgpu.ops import CopyOp, KernelOp
from repro.simgpu.specs import DeviceSpec
from repro.simgpu.trace import BusyTracer

_EPS = 1e-12

#: Ceiling on the per-engine (tag, size) -> span-metadata memo.  Paper
#: workloads reuse a handful of op shapes so the memo never nears this;
#: generated open-loop traffic draws near-unique sizes per request, and
#: without a cap the memo grows O(ops) over an unbounded run.
_SPAN_META_CAP = 1024


@dataclass
class _RunningKernel:
    """Book-keeping for one kernel resident on the compute engine."""

    op: KernelOp
    remaining: float  # solo-seconds of work left
    rate: float  # progress in solo-seconds per wall-second
    done: Event
    started_at: float
    solo_time: float
    boundedness: float  # memory-boundedness on this device
    span: Optional[object] = None  # telemetry span (None when disabled)


class SharedComputeEngine:
    """Processor-sharing SM array with occupancy + bandwidth interference."""

    def __init__(
        self,
        env: Environment,
        spec: DeviceSpec,
        tracer: Optional[BusyTracer] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.tracer = tracer
        #: The env's registry, cached off the per-kernel path (fixed for
        #: the env's lifetime; engines are built after the env attaches).
        self._tel = env.telemetry
        #: Trace-track label; renamed to ``GPU<gid>/SM`` by the gPool.
        self.track = f"gpu:{spec.name}/SM"
        self._running: Dict[int, _RunningKernel] = {}
        self._last_update = env.now
        self._wakeup: Optional[Event] = None
        self._proc = env.process(self._control_loop(), name=f"compute:{spec.name}")
        #: Cumulative busy time (any kernel resident), for utilization stats.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        #: Total kernels completed (diagnostics).
        self.completed = 0
        #: (tag, occupancy) -> (span name, shared args dict); kernels from
        #: one app repeat identical metadata, so build it once.
        self._span_meta: Dict[tuple, tuple] = {}

    # -- public API ---------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Number of kernels currently resident."""
        return len(self._running)

    def execute(self, op: KernelOp) -> Event:
        """Begin executing ``op``; the returned event triggers on completion.

        Launch latency is folded into the kernel's work so that very small
        kernels still cost something.
        """
        self._advance()
        solo = op.solo_time(self.spec) + self.spec.kernel_launch_latency_s
        entry = _RunningKernel(
            op=op,
            remaining=solo,
            rate=1.0,
            done=self.env.event(),
            started_at=self.env.now,
            solo_time=solo,
            boundedness=op.memory_boundedness(self.spec),
        )
        self._running[op.op_id] = entry
        if self._busy_since is None:
            self._busy_since = self.env.now
        if self.tracer is not None:
            self.tracer.begin(("kernel", op.op_id), self.env.now, tag=op.tag)
        tel = self._tel
        if tel.enabled:
            meta = self._span_meta.get((op.tag, op.occupancy))
            if meta is None:
                meta = (
                    f"kernel:{op.tag}" if op.tag else "kernel",
                    {"app": op.tag, "occupancy": op.occupancy},
                )
                if len(self._span_meta) < _SPAN_META_CAP:
                    self._span_meta[(op.tag, op.occupancy)] = meta
            # Positional call: this and the copy-engine site are the two
            # hottest span creations (one per device op).
            entry.span = tel.start_span(meta[0], "kernel", self.track, None, meta[1])
        self._recompute_rates()
        self._kick()
        return entry.done

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall time with at least one kernel resident."""
        now = self.env.now
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - max(self._busy_since, since)
        window = now - since
        return busy / window if window > 0 else 0.0

    def busy_seconds(self) -> float:
        """Cumulative busy seconds, including the open busy interval."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return busy

    # -- interference model ---------------------------------------------------

    def _recompute_rates(self) -> None:
        entries = list(self._running.values())
        if not entries:
            return
        total_occ = sum(e.op.occupancy for e in entries)
        sm_rate = 1.0 if total_occ <= 1.0 else 1.0 / total_occ

        # Offered memory-bandwidth load at the SM-limited rates.
        demand = sum(
            e.op.achieved_bandwidth_gbps(self.spec) * sm_rate for e in entries
        )
        bw = self.spec.mem_bandwidth_gbps
        scale = 1.0 if demand <= bw else bw / demand

        # Character-collision cost: co-resident kernels additionally thrash
        # caches/TLBs and the hardware scheduler (see DeviceSpec docs).
        crowd = 1.0 + self.spec.concurrency_penalty * (len(entries) - 1)

        for e in entries:
            # A kernel is slowed by memory contention only in proportion to
            # the fraction of its execution bound on memory.
            bw_factor = 1.0 - e.boundedness * (1.0 - scale)
            e.rate = max(sm_rate * bw_factor / crowd, _EPS)

    # -- internals ---------------------------------------------------------------

    def _advance(self) -> None:
        """Charge elapsed wall time against every running kernel."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            for e in self._running.values():
                e.remaining -= e.rate * dt
        self._last_update = now

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _control_loop(self):
        env = self.env
        while True:
            if not self._running:
                if self._busy_since is not None:
                    self.busy_time += env.now - self._busy_since
                    self._busy_since = None
                self._wakeup = env.event()
                yield self._wakeup
                self._advance()
                continue

            horizon = min(e.remaining / e.rate for e in self._running.values())
            horizon = max(horizon, 0.0)
            self._wakeup = env.event()
            yield env.any_of([env.timeout(horizon), self._wakeup])
            self._advance()

            finished = [
                e for e in self._running.values() if e.remaining <= _EPS * 10 + 1e-15
            ]
            for e in finished:
                del self._running[e.op.op_id]
                self.completed += 1
                if self.tracer is not None:
                    self.tracer.end(("kernel", e.op.op_id), env.now)
                if e.span is not None:
                    e.span.finish(env.now)
                e.done.succeed(
                    {
                        "op": e.op,
                        "started_at": e.started_at,
                        "finished_at": env.now,
                        "solo_time": e.solo_time,
                    }
                )
            if finished or self._running:
                self._recompute_rates()


class CopyEngine:
    """A FIFO DMA engine for host/device transfers.

    A transfer is a callback chain, not a process: :meth:`execute`
    queues a lane request, :meth:`_run` starts the transfer when the lane
    is granted, and the transfer's timeout releases the lane and fires
    the completion event.
    """

    def __init__(
        self,
        env: Environment,
        spec: DeviceSpec,
        label: str,
        tracer: Optional[BusyTracer] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.label = label
        self.tracer = tracer
        #: The env's registry, cached off the per-copy path.
        self._tel = env.telemetry
        #: Trace-track label; renamed to ``GPU<gid>/<LABEL>`` by the gPool.
        self.track = f"gpu:{spec.name}/{label.upper()}"
        self._lane = Resource(env, capacity=1)
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        self.completed = 0
        #: Cumulative transfer volume through this engine, in bytes.
        self.bytes_moved = 0
        #: (tag, nbytes) -> (span name, shared args dict); one app's
        #: copies repeat the same few sizes, so build metadata once.
        self._span_meta: Dict[tuple, tuple] = {}

    @property
    def queued(self) -> int:
        """Transfers waiting for the engine."""
        return self._lane.queued

    @property
    def busy(self) -> bool:
        """True while a transfer occupies the engine."""
        return self._lane.count > 0

    def busy_seconds(self) -> float:
        """Cumulative busy seconds, including the in-flight transfer."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return busy

    def execute(self, op: CopyOp) -> Event:
        """Queue ``op`` on the engine; returns its completion event."""
        done = self.env.event()
        slot = self._lane.request()
        slot.callbacks.append(lambda _slot: self._run(op, slot, done))
        return done

    def _run(self, op: CopyOp, slot, done: Event) -> None:
        """Move ``op`` once ``slot`` holds the lane: the lane is released
        and ``done`` fires with the completion record when it finishes."""
        env = self.env
        start = env.now
        self._busy_since = start
        duration = op.solo_time(self.spec) + self.spec.copy_latency_s
        if self.tracer is not None:
            self.tracer.begin(("copy", op.op_id), start, tag=op.tag or self.label)
        tel = self._tel
        span = None
        if tel.enabled:
            meta = self._span_meta.get((op.tag, op.nbytes))
            if meta is None:
                meta = (
                    f"{self.label}:{op.tag}" if op.tag else self.label,
                    {"app": op.tag, "bytes": op.nbytes},
                )
                if len(self._span_meta) < _SPAN_META_CAP:
                    self._span_meta[(op.tag, op.nbytes)] = meta
            span = tel.start_span(meta[0], "copy", self.track, None, meta[1])

        def _moved(_timeout: Event) -> None:
            if self.tracer is not None:
                self.tracer.end(("copy", op.op_id), env.now)
            if span is not None:
                span.finish(env.now)
            self.busy_time += env.now - start
            self._busy_since = None
            self.completed += 1
            self.bytes_moved += op.nbytes
            self._lane.release(slot)
            done.succeed(
                {"op": op, "started_at": start, "finished_at": env.now, "solo_time": duration}
            )

        env.timeout(duration).callbacks.append(_moved)


__all__ = ["CopyEngine", "SharedComputeEngine"]
