"""The per-device GPU scheduler (paper Section III.C, "GPU Scheduler").

Assembles the four components the paper describes for each device:

* **Request Manager** — registers/unregisters applications in the RCB
  (the RT-signal 3-way handshake, charged as a small fixed cost);
* **Dispatcher** — the installed :class:`DevicePolicy`'s loop driving the
  wake/sleep gate;
* **Request Monitor** — application characteristics accumulate on every
  op completion (event-driven rather than polled — same information, no
  sampling error);
* **Feedback Engine** — on unregister, the application's profile is
  piggybacked to the workload balancer's feedback sink.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Environment, Event
from repro.simgpu import GpuDevice
from repro.core.config import DEFAULT_CONFIG, SchedulerConfig
from repro.core.dispatch import DispatchGate
from repro.core.feedback import AppProfile
from repro.core.policies.device import AlwaysAwake, DevicePolicy
from repro.core.rcb import GpuPhase, RcbEntry, RequestControlBlock

FeedbackSink = Callable[[AppProfile], None]


class GpuScheduler:
    """Scheduler instance bound to one device of the gPool.

    Parameters
    ----------
    env, device, gid:
        The device this scheduler owns and its global id.
    policy:
        Device-level policy; defaults to :class:`AlwaysAwake` (no gating).
    config:
        Tunables (quanta, decay constants, handshake cost).
    feedback_sink:
        Called with an :class:`AppProfile` whenever an application
        unregisters — the Feedback Engine's channel to the load balancer.
    """

    def __init__(
        self,
        env: Environment,
        device: GpuDevice,
        gid: int,
        policy: Optional[DevicePolicy] = None,
        config: SchedulerConfig = DEFAULT_CONFIG,
        feedback_sink: Optional[FeedbackSink] = None,
    ) -> None:
        self.env = env
        self.device = device
        self.gid = gid
        self.policy = policy if policy is not None else AlwaysAwake()
        self.config = config
        self.feedback_sink = feedback_sink
        self.rcb = RequestControlBlock(env)
        self.gate = DispatchGate(env, gid=gid)
        self.profiles_sent = 0
        self._dispatcher = env.process(
            self.policy.dispatcher(self), name=f"dispatcher:gid{gid}"
        )

    # -- Request Manager ------------------------------------------------------

    def register(self, app_name: str, tenant_id: str, tenant_weight: float = 1.0):
        """Register an application (3-way handshake): a generator driven
        with ``yield from``, whose value is the new :class:`RcbEntry`."""
        yield self.env.timeout(self.config.registration_overhead_s)
        return self._register(app_name, tenant_id, tenant_weight)

    def _register(self, app_name: str, tenant_id: str, tenant_weight: float) -> RcbEntry:
        """Enter a handshaken application in the RCB."""
        entry = self.rcb.register(app_name, tenant_id, tenant_weight)
        if self.policy.gated:
            # Gated policies own the wake signal: threads start asleep and
            # wait for their first slice.
            entry.awake = False
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("scheduler.registrations", gid=self.gid).inc()
            tel.gauge("scheduler.rcb_live", gid=self.gid).set(len(self.rcb))
        return entry

    def unregister(self, entry: RcbEntry) -> AppProfile:
        """Unregister (on ``cudaThreadExit``) and emit the app's profile."""
        profile = entry.profile(self.env.now, gid=self.gid)
        self.rcb.unregister(entry)
        if self.feedback_sink is not None:
            self.feedback_sink(profile)
            self.profiles_sent += 1
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("scheduler.profiles_emitted", gid=self.gid).inc()
            tel.gauge("scheduler.rcb_live", gid=self.gid).set(len(self.rcb))
            tel.histogram("scheduler.app_gpu_time_s", gid=self.gid).observe(
                profile.gpu_time_s
            )
            tel.histogram("scheduler.app_transfer_time_s", gid=self.gid).observe(
                profile.transfer_time_s
            )
            tel.attribution.record_profile(
                entry.tenant_id, self.gid, profile.runtime_s
            )
        return profile

    def evict(self, entry: RcbEntry) -> None:
        """Forcibly unregister a faulted application's entry.

        Unlike :meth:`unregister` no profile is emitted: the run was cut
        short by an injected fault, so its partial characteristics would
        poison the SFT.  The RCB unregistration wakes anything parked at
        the dispatch gate, so recovery can never deadlock on a sleeping
        tenant.  Idempotent.
        """
        if entry.unregistered:
            return
        self.rcb.unregister(entry)
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("scheduler.evictions", gid=self.gid).inc()
            tel.gauge("scheduler.rcb_live", gid=self.gid).set(len(self.rcb))

    # -- gate passthrough (used by sessions) --------------------------------------

    def permission(self, entry: RcbEntry, phase: GpuPhase) -> Event:
        """Gate an op issue in ``phase`` (see :class:`DispatchGate`)."""
        ev = self.gate.permission(entry, phase)
        # Wake an idle dispatcher: demand just appeared.
        self.rcb.notify_demand()
        return ev

    def __repr__(self) -> str:
        return f"<GpuScheduler gid={self.gid} policy={self.policy.name}>"


__all__ = ["GpuScheduler"]
