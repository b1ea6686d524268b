"""The application's GPU sessions over the layered request pipeline.

A session is the application's view of the installed runtime stack.
:class:`DirectSession` is the bare CUDA runtime.  :class:`ManagedSession`
is the one scheduled session: every intercepted CUDA call flows through
the same three layers (DESIGN.md §12), and the system that owns the
session parameterizes them:

* **frontend interposer** (:mod:`repro.remoting.interposer`) — call
  capture + marshalling/wire/staging costs over the session's channel
  to the backend (shared memory or GigE, resolved at bind time);
* **backend issue loop** (:mod:`repro.remoting.worker`) — the FIFO loop
  modelling the backend thread that issues calls to the device: private
  per session (Designs I/III) or shared per device (Design II);
* **translation stack** (:mod:`repro.core.translation`) — pluggable
  copy/launch/sync strategies (native vs the SC/AST/SST/MOT packing
  translations).

===============  ============  ============  ============  ============
                 CUDA runtime  RainSystem    Design2System StringsSystem
                 (Direct-      (Design I)    (Design II)   (Design III)
                 Session)
---------------  ------------  ------------  ------------  ------------
device choice    programmed    balancer      balancer      balancer
backend          own process   own backend   per-device    thread in
                               process       master thread per-GPU proc
issue loop       none          per session   per device    per session
                                             (shared FIFO)
streams          default       default       own (SC/AST)  own (SC/AST)
memcpy           sync pageable sync pageable async pinned  async pinned
device sync      whole context whole context own stream,   own stream
                                             on the shared (SST)
                                             thread (HoL)
device policy    none          optional gate optional gate optional gate
===============  ============  ============  ============  ============

Cross-cutting concerns attach at exactly one place per layer: telemetry
spans for staging at the interposer, queue-wait/gate-park/op spans in the
issue loop, and the one abort hook (:meth:`ManagedSession.abort`, for
tenant departures and injected faults alike) on the session, which
cancels only its own items on a shared loop.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.categories import CAT_GATE, CAT_QUEUE, PHASE_CATEGORY
from repro.sim import Environment, Event
from repro.simgpu import CopyKind, CopyOp, KernelOp
from repro.cuda.errors import CudaError, CudaErrorCode
from repro.cluster.node import Node
from repro.cuda import CudaThread, HostProcess
from repro.remoting.interposer import FrontendInterposer
from repro.remoting.session import GpuSession
from repro.remoting.worker import BackendIssueLoop, IssueItem
from repro.core.affinity import Binding
from repro.core.config import DEFAULT_CONFIG, SchedulerConfig
from repro.core.gpool import DeviceHealth
from repro.core.gpu_scheduler import GpuScheduler
from repro.core.packer import PackedApp
from repro.core.rcb import GpuPhase, RcbEntry
from repro.core.translation import TranslationStack


def malloc_with_backpressure(
    env: Environment,
    thread,
    nbytes: int,
    retry_s: float = DEFAULT_CONFIG.malloc_retry_s,
    max_wait_s: float = DEFAULT_CONFIG.malloc_max_wait_s,
):
    """cudaMalloc that waits out transient device-memory exhaustion.

    A generator (run as a process); its value is the device pointer.
    ``retry_s`` / ``max_wait_s`` come from
    :attr:`SchedulerConfig.malloc_retry_s` /
    :attr:`SchedulerConfig.malloc_max_wait_s` on the managed path.
    """
    waited = 0.0
    while True:
        try:
            return thread.malloc(nbytes)
        except CudaError as exc:
            if exc.code is not CudaErrorCode.MEMORY_ALLOCATION:
                raise
            if waited >= max_wait_s:
                raise
        yield env.timeout(retry_s)
        waited += retry_s


class DirectSession(GpuSession):
    """Static provisioning through the bare CUDA runtime.

    The application keeps its programmed device, runs in its own host
    process (own GPU context), and every call has native CUDA semantics.
    No pipeline layers are involved: there is no interposer or backend
    issue loop — calls go straight to the thread.
    """

    def __init__(self, env: Environment, app_name: str, node: Node, tenant_id: str = "t0") -> None:
        super().__init__(env, app_name, tenant_id)
        self.node = node
        self._proc: Optional[HostProcess] = None
        self._thread: Optional[CudaThread] = None
        self._gid = 0

    # -- lifecycle ----------------------------------------------------------

    def bind(self, programmed_device: int = 0):
        self._proc = HostProcess(self.env, self.node.devices, name=self.app_name)
        self._thread = self._proc.spawn_thread()
        self._thread.set_device(programmed_device)
        self._gid = programmed_device
        yield self.env.timeout(0)
        return programmed_device

    def finish(self):
        yield self.env.timeout(0)
        self._thread.thread_exit()
        self._proc.teardown()

    # -- observability ------------------------------------------------------

    def _obs_op(self, evt: Event, phase: str) -> Event:
        """Wrap a device op's completion in a session-side child span.

        The bare runtime has no backend issue loop, so the baseline's op
        coverage — kernel/copy blame for the critical-path profiler and
        the tenant-attribution rows the reconciliation pass checks — is
        hooked here, at the same interposition point the paper's systems
        would own.  Without this every CUDA-baseline request would show
        as 100% "scheduler overhead" in the blame table.
        """
        tel = self.env.telemetry
        if not tel.enabled:
            return evt
        span = tel.start_span(
            f"{phase}:{self.app_name}",
            cat=PHASE_CATEGORY.get(phase, "default"),
            track=f"app:{self.app_name}",
            parent=self.root_span,
            args={"app": self.app_name, "phase": phase},
        )

        def _cb(e: Event) -> None:
            span.finish(self.env.now)
            record = e.value if e.ok else None
            if isinstance(record, dict):
                op = record.get("op")
                seconds = record["finished_at"] - record["started_at"]
                if isinstance(op, KernelOp):
                    tel.attribution.record_kernel(
                        self.tenant_id, self._gid, seconds, op.bytes_accessed
                    )
                elif isinstance(op, CopyOp):
                    tel.attribution.record_copy(
                        self.tenant_id, self._gid, seconds, op.nbytes
                    )

        if evt.callbacks is None:
            _cb(evt)
        else:
            evt.callbacks.append(_cb)
        return evt

    # -- calls ------------------------------------------------------------------

    def malloc(self, nbytes: int):
        alloc = self.env.process(malloc_with_backpressure(self.env, self._thread, nbytes))
        return (yield self._obs_op(alloc, GpuPhase.DFL.value))

    def free(self, ptr: int):
        yield self.env.timeout(0)
        self._thread.free(ptr)

    def memcpy(self, nbytes: int, kind: CopyKind):
        yield self._obs_op(
            self._thread.memcpy(nbytes, kind, tag=self.app_name), kind.value
        )

    def launch(self, flops: float, bytes_accessed: float, occupancy: float = 1.0, tag: str = ""):
        # The bare runtime's app waits the kernel out.
        yield self._obs_op(
            self._thread.launch_kernel(
                flops, bytes_accessed, occupancy, tag=tag or self.app_name
            ),
            GpuPhase.KL.value,
        )

    def synchronize(self):
        yield self._obs_op(self._thread.device_synchronize(), GpuPhase.DFL.value)


class ManagedSession(GpuSession):
    """The scheduled session of every backend design (Designs I/II/III).

    Owns the pipeline: a :class:`FrontendInterposer` for the frontend
    costs and the channel, a backend issue loop for call issue and its
    system's :class:`TranslationStack` for call semantics, plus the
    affinity-mapper binding, the device-scheduler registration and the
    Request Monitor accounting.  The owning system
    (:mod:`repro.core.systems`) is the design: the session reads the
    stack from it and calls its four hooks — ``_issue_loop`` on
    construction, ``_bind_worker`` and ``_bound`` in :meth:`bind`, and
    ``_release_worker`` on finish and abort.  Each call is a generator
    the request drives with ``yield from``: only the issue loop and the
    malloc retry loop it waits on are processes.
    """

    def __init__(
        self,
        system,
        app_name: str,
        frontend_node: Node,
        tenant_id: str = "t0",
        tenant_weight: float = 1.0,
    ) -> None:
        super().__init__(system.env, app_name, tenant_id)
        #: The owning system: mapper, device schedulers and design hooks.
        self.system = system
        self.frontend_node = frontend_node
        self.tenant_weight = tenant_weight
        self.config: SchedulerConfig = system.config

        #: Layer 1: call capture + the channel to the backend.
        self.interposer = FrontendInterposer(self, system.network, system.rpc)
        #: Layer 3: the design's call-semantics strategies.
        self.translation: TranslationStack = system.translation

        self.binding: Optional[Binding] = None
        self.scheduler: Optional[GpuScheduler] = None
        self.entry: Optional[RcbEntry] = None
        self.worker: Optional[CudaThread] = None
        #: The Context Packer's record of this app, on packed designs.
        self.packed: Optional[PackedApp] = None
        #: Layer 2: the backend issue loop — private, or None until a
        #: shared-loop design attaches the device's loop at bind time.
        self._loop: Optional[BackendIssueLoop] = system._issue_loop(self)
        #: Completion event of the most recently *posted* GPU op (ordering
        #: anchor for synchronize under async translation).
        self._last_gpu_op: Optional[Event] = None
        self._finished = False
        #: The exception :meth:`abort` killed this session with.
        self._aborted: Optional[BaseException] = None
        self._unbound = False

        # -- hot-path observability caches (overhead satellite, ISSUE 4).
        #: Track name shared by every session-side span of this app.
        self._obs_track = f"app:{app_name}"
        #: phase -> (span name, category, shared args dict), built lazily.
        self._obs_phase: dict = {}
        #: (telemetry, Histogram) pairs for the per-op wait histograms.
        self._obs_queue_hist: Optional[tuple] = None
        self._obs_gate_hist: Optional[tuple] = None
        #: (telemetry, gid, TenantUsage) for the current binding.
        self._obs_row: Optional[tuple] = None

    @property
    def aborted(self) -> bool:
        """True once :meth:`abort` killed this session (fault or churn).

        In-flight work of an aborted session may surface as
        :class:`~repro.cuda.errors.CudaError` (its worker is torn down
        underneath it) rather than the abort exception itself; callers
        use this flag to attribute such failures to the abort.
        """
        return self._aborted is not None

    # -- observability hooks (only reached when telemetry is enabled) --------

    def _obs_usage(self, tel):
        """The session's attribution row, cached per (telemetry, gid).

        Direct row mutation replaces the ``record_*`` indirection on the
        per-op paths; all callers sit behind ``tel.enabled`` guards, so
        the null table's no-op overrides are never bypassed in effect.
        """
        gid = self.binding.gid if self.binding is not None else -1
        row = self._obs_row
        if row is None or row[0] is not tel or row[1] != gid:
            row = self._obs_row = (tel, gid, tel.attribution.usage(self.tenant_id, gid))
        return row[2]

    def _obs_queue_wait(self, tel, item: IssueItem) -> None:
        """Record the op's wait in the backend issue queue.

        Ops issued immediately (the common, unloaded case) record
        nothing — the histogram counts *actual* waits, and a zero adds
        nothing to the attribution row anyway.
        """
        wait = self.env.now - item.posted_at
        if wait <= 0.0:
            return
        hist = self._obs_queue_hist
        if hist is None or hist[0] is not tel:
            hist = self._obs_queue_hist = (
                tel, tel.histogram("session.queue_wait_s", app=self.app_name)
            )
        hist[1].observe(wait)
        self._obs_usage(tel).queue_wait_s += wait
        tel.start_span(
            f"queue:{self.app_name}",
            cat=CAT_QUEUE,
            track=self._obs_track,
            parent=self.root_span,
            args={"app": self.app_name, "phase": item.phase.value},
            start=item.posted_at,
        ).finish(self.env.now)

    def _obs_gate_park(self, tel, item: IssueItem, parked_at: float) -> None:
        """Record time parked at the dispatch gate waiting for a wake.

        Like :meth:`_obs_queue_wait`, instant grants record nothing.
        """
        parked = self.env.now - parked_at
        if parked <= 0.0:
            return
        hist = self._obs_gate_hist
        if hist is None or hist[0] is not tel:
            hist = self._obs_gate_hist = (
                tel, tel.histogram("session.gate_park_s", app=self.app_name)
            )
        hist[1].observe(parked)
        self._obs_usage(tel).gate_park_s += parked
        tel.start_span(
            f"gate:{self.app_name}",
            cat=CAT_GATE,
            track=self._obs_track,
            parent=self.root_span,
            args={"app": self.app_name, "phase": item.phase.value},
            start=parked_at,
        ).finish(self.env.now)

    def _obs_op_span(self, tel, item: IssueItem):
        """Open the session-side op span for an item being issued."""
        meta = self._obs_phase.get(item.phase)
        if meta is None:
            meta = self._obs_phase[item.phase] = (
                f"{item.phase.value}:{self.app_name}",
                PHASE_CATEGORY.get(item.phase.value, "default"),
                {"app": self.app_name, "phase": item.phase.value},
            )
        # Positional: one span per gated op, the hottest session-side site.
        return tel.start_span(meta[0], meta[1], self._obs_track, self.root_span, meta[2])

    def _hook_completion(
        self, completion: Event, done: Event, account: bool = True, span=None
    ) -> None:
        def _cb(evt: Event) -> None:
            if span is not None:
                span.finish(self.env.now)
            if evt.ok:
                if account:
                    self._complete_accounting(evt.value)
                if not done.triggered:
                    done.succeed(evt.value)
            else:
                evt.defused = True
                if account:
                    self._complete_accounting(None)
                done.defused = True
                if not done.triggered:
                    done.fail(evt.value)

        if completion.callbacks is None:
            _cb(completion)
        else:
            completion.callbacks.append(_cb)

    def _complete_accounting(self, record) -> None:
        if self.entry is not None and record is not None:
            self.entry.complete(record)
        elif self.entry is not None:
            self.entry.abandon()
        tel = self.env.telemetry
        if tel.enabled and isinstance(record, dict):
            op = record.get("op")
            seconds = record["finished_at"] - record["started_at"]
            row = self._obs_usage(tel)
            if isinstance(op, KernelOp):
                row.gpu_busy_s += seconds
                row.kernel_bytes_gb += op.bytes_accessed
            elif isinstance(op, CopyOp):
                row.transfer_s += seconds
                row.bytes_moved_gb += op.nbytes / 1e9

    def _post(self, phase: GpuPhase, make, blocking: bool, gated: bool = True) -> Event:
        if self._aborted is not None:
            # The session was killed by an injected fault: surface the
            # cause at the next intercepted call, like a real frontend
            # whose backend connection dropped.
            raise self._aborted
        if self._loop is None:
            raise RuntimeError(
                f"session {self.app_name!r} has no backend issue loop "
                "(shared-loop sessions get one at bind time)"
            )
        done = self.env.event()
        self._loop.post(
            IssueItem(self, phase, make, blocking, done, gated, posted_at=self.env.now)
        )
        if phase is not GpuPhase.DFL:
            self._last_gpu_op = done
        return done

    # -- lifecycle ---------------------------------------------------------------------

    def bind(self, programmed_device: int = 0):
        system = self.system
        mapper = system.mapper
        # cudaSetDevice intercepted -> forwarded to the affinity mapper.
        yield self.interposer.request()
        self._check_aborted()
        self.binding = mapper.bind(self.app_name, self.frontend_node.hostname)
        gid = self.binding.gid
        if mapper.pool.dst.row(gid).health is DeviceHealth.UNHEALTHY:
            # Placement fell back to a dead GPU (every one is down): fail
            # fast and retryably instead of respawning its backend.
            mapper.unbind(self.binding)
            self._unbound = True
            raise CudaError(CudaErrorCode.NO_DEVICE, f"GPU {gid} is unavailable")
        self.interposer.local = mapper.pool.is_local(gid, self.frontend_node.hostname)
        # Forward the binding to the backend on the target node.
        yield self.interposer.request()
        # Checked *before* creating the worker: binding to a crashed
        # backend must not silently respawn its device process.
        self._check_aborted()
        self.scheduler = system.schedulers[gid]
        self.worker = system._bind_worker(self, gid)
        self.entry = yield from self.scheduler.register(
            self.app_name, self.tenant_id, self.tenant_weight
        )
        self._check_aborted()
        yield self.interposer.response()
        self._check_aborted()
        system._bound(self, gid)
        return gid

    def finish(self):
        if self._finished:
            return None
        self._finished = True
        # Drain: wait for the last posted GPU op before tearing down.
        if self._last_gpu_op is not None and not self._last_gpu_op.processed:
            yield self._last_gpu_op
        yield self.interposer.request()
        profile = None
        if self.scheduler is not None and self.entry is not None:
            profile = self.scheduler.unregister(self.entry)
        self.system._release_worker(self)
        if self.binding is not None and not self._unbound:
            self.system.mapper.unbind(self.binding)
            self._unbound = True
        # Feedback rides the thread-exit response: no extra message cost.
        yield self.interposer.response()
        return profile

    # -- aborts: tenant departures and injected faults ------------------------

    def _check_aborted(self) -> None:
        """Raise the pending abort (cleaning up first), if any."""
        if self._aborted is not None:
            self._abort_cleanup()
            raise self._aborted

    def _abort_cleanup(self) -> None:
        """Release whatever this session still holds.  Idempotent."""
        if (
            self.entry is not None
            and not self.entry.unregistered
            and self.scheduler is not None
        ):
            self.scheduler.evict(self.entry)
        self.system._release_worker(self)
        if self.binding is not None and not self._unbound:
            self.system.mapper.unbind(self.binding)
            self._unbound = True

    def abort(self, exc: BaseException) -> None:
        """Kill the session with ``exc``: a tenant departure, an injected
        fault, or the runner releasing a failed attempt before re-dispatch.

        Pending queued ops fail immediately (pre-defused: their drivers may
        never look); on a shared Design II loop only *this* session's items
        are cancelled.  In-flight device ops are allowed to complete in sim
        time (see DESIGN.md §Fault Model for the calibration caveat), and
        the driver's *next* call raises via :meth:`_post`.
        """
        if self._aborted is not None or self._finished:
            return
        self._aborted = exc
        self._finished = True
        if self._loop is not None:
            self._loop.cancel_owner(self, exc)
        self._abort_cleanup()

    # -- memory -----------------------------------------------------------------------------

    def malloc(self, nbytes: int):
        yield self.interposer.roundtrip()
        return (yield self._post(
            GpuPhase.DFL, lambda: self._malloc_now(nbytes), blocking=True, gated=False
        ))

    def _malloc_now(self, nbytes: int) -> Event:
        return self.env.process(
            malloc_with_backpressure(
                self.env,
                self.worker,
                nbytes,
                self.config.malloc_retry_s,
                self.config.malloc_max_wait_s,
            )
        )

    def free(self, ptr: int):
        yield self.interposer.roundtrip()
        yield self._post(
            GpuPhase.DFL, lambda: self._free_now(ptr), blocking=True, gated=False
        )

    def _free_now(self, ptr: int) -> Event:
        ev = self.env.event()
        self.worker.free(ptr)
        ev.succeed(None)
        return ev

    # -- work: delegated to the translation stack ---------------------------

    def memcpy(self, nbytes: int, kind: CopyKind):
        yield from self.translation.copy.run(self, nbytes, kind)

    def launch(self, flops: float, bytes_accessed: float, occupancy: float = 1.0, tag: str = ""):
        yield from self.translation.launch.run(self, flops, bytes_accessed, occupancy, tag)

    def synchronize(self):
        yield from self.translation.sync.run(self)


__all__ = [
    "DirectSession",
    "ManagedSession",
    "malloc_with_backpressure",
]
