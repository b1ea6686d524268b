"""Self-healing recovery: fault replay, health transitions, aborts and
re-dispatch.

The :class:`RecoveryManager` is the subsystem's control plane, one per
run.  :meth:`RecoveryManager.start` replays the run's
:class:`~repro.faults.plan.FaultPlan` in sim time; each event flips DST
health states, kills backend processes and aborts the sessions caught on
a failed device, which it finds in the runner's open-session table.  The
runner's request body asks :meth:`RecoveryManager.redispatch` for a
backoff (or a "lost" verdict) whenever a request fails with a retryable
error, so aborted requests are re-dispatched to surviving GPUs with
capped exponential backoff.

Calibration caveats (see DESIGN.md §Fault Model):

* an op already *in flight on the device* when the fault lands completes
  in sim time — the abort surfaces at the driver's next intercepted call;
* re-dispatch restarts the whole request (at-least-once semantics); the
  paper's service model has no mid-request checkpointing to restore;
* a DRAINING device re-enters placement carrying a warm-up
  ``load_penalty`` equal to the pool's peak load so GMin-family policies
  don't stampede the freshly recovered GPU.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.sim import Environment
from repro.cuda.errors import CudaError, CudaErrorCode
from repro.core.gpool import DeviceHealth
from repro.core.packer import ContextPacker
from repro.faults.errors import (
    BackendCrashError,
    DeviceLostError,
    FaultError,
    LinkPartitionError,
)
from repro.faults.plan import FaultEvent, FaultPlan

#: CUDA error codes a re-dispatch can cure: the op hit a torn-down worker
#: (dead backend) or found no live device, rather than a programming error.
RETRYABLE_CUDA = (
    CudaErrorCode.INVALID_RESOURCE_HANDLE,
    CudaErrorCode.NO_DEVICE,
)


def retryable(exc: BaseException) -> bool:
    """Whether a re-dispatch can cure ``exc``: an injected fault, or a CUDA
    error from a dead backend or a dead device."""
    if isinstance(exc, FaultError):
        return True
    return isinstance(exc, CudaError) and exc.code in RETRYABLE_CUDA


class RecoveryManager:
    """Replays a fault plan against a scheduled system and heals around it.

    ``sessions`` is the runner's open-session table (session -> tenant
    state, in open order): a device loss aborts the entries bound to the
    failed GPU, a partition the entries it cuts in two.  The retry
    budget and the DRAINING warm-up come from ``plan``.
    """

    def __init__(
        self,
        env: Environment,
        system,
        plan: FaultPlan,
        sessions: Mapping[object, object],
    ) -> None:
        self.env = env
        self.system = system
        self.plan = plan
        self.sessions = sessions

        # Accounting (plain ints so summaries work with telemetry off).
        self.injected: Dict[str, int] = {}
        self.retries = 0
        self.requests_redispatched = 0
        self.requests_lost = 0
        #: Fault-attributable per-tenant delay: from a request's first
        #: abort until it finally completes (or is given up on).
        self.tenant_downtime_s: Dict[str, float] = {}
        self.gpu_downtime_s: Dict[int, float] = {}
        self._down_since: Dict[int, float] = {}
        self._outage_spans: Dict[int, object] = {}

    # -- fault replay ----------------------------------------------------

    def start(self) -> None:
        """Check the plan's targets against the pool, then spawn the
        process that replays its events (none for an empty plan)."""
        pool = self.system.pool
        self.plan.check_targets(pool.gids(), [node.hostname for node in pool.nodes])
        events = self.plan.events_for(pool.gids())
        if events:
            self.env.process(self._replay(events), name="fault-injector")

    def _replay(self, events: Sequence[FaultEvent]):
        env = self.env
        for ev in events:
            if ev.t > env.now:
                yield env.timeout(ev.t - env.now)
            self._fire(ev)

    def _fire(self, ev: FaultEvent) -> None:
        # Events that carry a duration schedule their own healing action,
        # so one gpu_fail item yields the whole outage-and-recovery arc.
        if ev.kind == "gpu_fail":
            self.fail_gpu(ev.gid, transient=ev.transient)
            if ev.down_s is not None:
                self._later(ev.down_s, lambda: self.recover_gpu(ev.gid))
        elif ev.kind == "gpu_recover":
            self.recover_gpu(ev.gid)
        elif ev.kind == "backend_crash":
            self.crash_backend(ev.gid, restart_s=ev.restart_s)
        elif ev.kind == "link_degrade":
            self.degrade_link(ev.latency_mult, ev.bandwidth_mult)
            if ev.down_s is not None:
                self._later(ev.down_s, self.restore_link)
        elif ev.kind == "link_partition":
            self.partition_host(ev.host)
            if ev.down_s is not None:
                self._later(ev.down_s, lambda: self.heal_host(ev.host))
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {ev.kind!r}")

    # -- shared plumbing -------------------------------------------------

    def _log(self, name: str, **args) -> None:
        tel = self.env.telemetry
        if tel.enabled:
            tel.decisions.record_event(self.env.now, "fault", name, args)

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("faults.injected", kind=kind).inc()

    def _mark_down(self, gid: int) -> None:
        self._down_since.setdefault(gid, self.env.now)
        tel = self.env.telemetry
        if tel.enabled and gid not in self._outage_spans:
            self._outage_spans[gid] = tel.start_span(
                f"outage:GPU{gid}", cat="fault", track="faults", args={"gid": gid}
            )

    def _mark_up(self, gid: int) -> None:
        since = self._down_since.pop(gid, None)
        if since is not None:
            self.gpu_downtime_s[gid] = (
                self.gpu_downtime_s.get(gid, 0.0) + self.env.now - since
            )
        span = self._outage_spans.pop(gid, None)
        if span is not None:
            span.finish(self.env.now)

    def _victims(self, gid: int):
        return [
            s
            for s in self.sessions
            if s.binding is not None and s.binding.gid == gid
        ]

    def _abort_sessions(self, sessions, exc_factory) -> None:
        for sess in sessions:
            sess.abort(exc_factory())

    def _kill_backend(self, gid: int) -> None:
        entry = self.system.pool.gmap.lookup(gid)
        daemon = self.system.daemons[entry.hostname]
        daemon.crash_device(entry.local_id)
        packers = getattr(self.system, "packers", None)
        if packers is not None and gid in packers:
            # A crashed process takes its packed context (and PMT) with it.
            packers[gid] = ContextPacker()

    def _later(self, delay: float, fn) -> None:
        def _wait():
            yield self.env.timeout(delay)
            fn()

        self.env.process(_wait(), name="fault-timer")

    # -- device loss -----------------------------------------------------

    def fail_gpu(self, gid: int, transient: bool = False) -> None:
        """Device loss: mark UNHEALTHY, abort resident sessions, kill the
        backend process that held the device's context."""
        row = self.system.pool.dst.row(gid)
        if row.health is DeviceHealth.UNHEALTHY:
            return
        row.health = DeviceHealth.UNHEALTHY
        self._count("gpu_fail")
        self._mark_down(gid)
        self._log("gpu_unhealthy", gid=gid, transient=transient)
        # Abort sessions *before* killing the backend: their workers are
        # still live, so teardown runs the clean thread-exit path.
        self._abort_sessions(self._victims(gid), lambda: DeviceLostError(gid))
        self._kill_backend(gid)

    def recover_gpu(self, gid: int) -> None:
        """Device back: DRAINING with a warm-up load penalty, then HEALTHY."""
        row = self.system.pool.dst.row(gid)
        if row.health is DeviceHealth.HEALTHY:
            return
        row.health = DeviceHealth.DRAINING
        # Re-enter at the pool's peak load so balancing policies ramp the
        # recovered device up instead of stampeding it.
        penalty = float(
            max((r.device_load for r in self.system.pool.dst.rows()), default=0)
        )
        row.load_penalty = penalty
        self._mark_up(gid)
        self._log("gpu_draining", gid=gid, penalty=penalty)

        def _warmup():
            yield self.env.timeout(self.plan.warmup_s)
            if row.health is DeviceHealth.DRAINING:
                row.load_penalty = 0.0
                row.health = DeviceHealth.HEALTHY
                self._log("gpu_healthy", gid=gid)

        self.env.process(_warmup(), name=f"warmup:GPU{gid}")

    # -- backend crash ---------------------------------------------------

    def crash_backend(self, gid: int, restart_s: float = 1.0) -> None:
        """The per-device backend process dies; a supervisor restarts it
        after ``restart_s`` and the device re-enters via the drain path."""
        row = self.system.pool.dst.row(gid)
        if row.health is DeviceHealth.UNHEALTHY:
            return  # already down; nothing left to crash
        row.health = DeviceHealth.UNHEALTHY
        self._count("backend_crash")
        self._mark_down(gid)
        self._log("backend_crash", gid=gid, restart_s=restart_s)
        self._abort_sessions(self._victims(gid), lambda: BackendCrashError(gid))
        self._kill_backend(gid)
        self._later(restart_s, lambda: self.recover_gpu(gid))

    # -- interconnect ----------------------------------------------------

    def degrade_link(
        self, latency_mult: float = 1.0, bandwidth_mult: float = 1.0
    ) -> None:
        """Degrade the remote links (latency up / bandwidth down)."""
        self.system.network.degrade(latency_mult, bandwidth_mult)
        self._count("link_degrade")
        self._log(
            "link_degrade", latency_mult=latency_mult, bandwidth_mult=bandwidth_mult
        )

    def restore_link(self) -> None:
        """Clear link degradation."""
        self.system.network.restore()
        self._log("link_restore")

    def partition_host(self, host: str) -> None:
        """Cut ``host`` off the interconnect.

        Its GPUs become UNHEALTHY pool-wide (the gPool can no longer reach
        them) and every *cross-partition* session — frontend on one side,
        device on the other — is aborted.  Sessions entirely on one side
        keep running; backend processes are not killed.
        """
        self.system.network.partition(host)
        self._count("link_partition")
        self._log("link_partition", host=host)
        pool = self.system.pool
        for row in pool.dst.rows():
            if row.hostname == host and row.health is not DeviceHealth.UNHEALTHY:
                row.health = DeviceHealth.UNHEALTHY
                self._mark_down(row.gid)
                self._log("gpu_unhealthy", gid=row.gid, cause="link_partition")
        victims = [
            s
            for s in self.sessions
            if s.binding is not None
            and (s.frontend_node.hostname == host)
            != (pool.gmap.lookup(s.binding.gid).hostname == host)
        ]
        self._abort_sessions(victims, lambda: LinkPartitionError(host))

    def heal_host(self, host: str) -> None:
        """Reconnect a partitioned host; its GPUs re-enter via draining."""
        self.system.network.heal(host)
        self._log("link_heal", host=host)
        for row in self.system.pool.dst.rows():
            if row.hostname == host and row.health is DeviceHealth.UNHEALTHY:
                self.recover_gpu(row.gid)

    # -- re-dispatch (asked by the runner's request body) ----------------

    def redispatch(
        self, req, session, exc: BaseException, attempt: int, first_fail: float
    ) -> Optional[float]:
        """Attempt ``attempt`` of ``req`` failed on ``session`` with the
        retryable ``exc``: abort the session and return the backoff before
        the next attempt, or None once the plan's ``retry.max_retries``
        re-dispatches are spent (the request is lost).

        The balancing policy steers the next attempt to a surviving GPU
        because the failed one is no longer eligible.  ``first_fail`` is
        when the request first failed: a lost request charges its tenant
        the time since.
        """
        from_gid = getattr(session.binding, "gid", None)
        session.abort(exc)
        tel = self.env.telemetry
        if attempt > self.plan.retry.max_retries:
            self.requests_lost += 1
            self._downtime(req.tenant_id, self.env.now - first_fail)
            if tel.enabled:
                tel.counter("faults.requests_lost", app=req.app.short).inc()
            self._log(
                "request_lost",
                app=req.app.short,
                tenant=req.tenant_id,
                attempts=attempt,
                error=type(exc).__name__,
            )
            return None
        self.retries += 1
        if tel.enabled:
            tel.counter("faults.retries", app=req.app.short).inc()
        self._log(
            "redispatch",
            app=req.app.short,
            tenant=req.tenant_id,
            attempt=attempt,
            from_gid=from_gid,
            error=type(exc).__name__,
        )
        return self.plan.retry.backoff_s(attempt)

    def recovered(self, req, first_fail: float) -> None:
        """``req`` completed after failing first at ``first_fail``."""
        self.requests_redispatched += 1
        self._downtime(req.tenant_id, self.env.now - first_fail)
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("faults.redispatches", app=req.app.short).inc()

    def _downtime(self, tenant_id: str, seconds: float) -> None:
        self.tenant_downtime_s[tenant_id] = (
            self.tenant_downtime_s.get(tenant_id, 0.0) + seconds
        )

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Availability/goodput summary (still-open outages charged to now)."""
        now = self.env.now
        gpu_down = dict(self.gpu_downtime_s)
        for gid, since in self._down_since.items():
            gpu_down[gid] = gpu_down.get(gid, 0.0) + now - since
        return {
            "faults_injected": dict(self.injected),
            "retries": self.retries,
            "requests_redispatched": self.requests_redispatched,
            "requests_lost": self.requests_lost,
            "tenant_downtime_s": dict(self.tenant_downtime_s),
            "gpu_downtime_s": gpu_down,
        }


__all__ = ["RETRYABLE_CUDA", "RecoveryManager", "retryable"]
