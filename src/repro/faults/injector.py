"""Fault injector: fires a :class:`~repro.faults.plan.FaultPlan` in sim time.

A chaos-harness clock process walks the plan's (time-sorted) events and
calls the matching :class:`~repro.faults.recovery.RecoveryManager` hook
at each timestamp.  Events that carry a duration (``down_s``) schedule
their own healing action, so a single ``gpu_fail`` line in a ``--faults``
spec produces the whole outage-and-recovery arc.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim import Environment
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import RecoveryManager


class FaultInjector:
    """Replays a fault plan against a running system."""

    def __init__(
        self, env: Environment, plan: FaultPlan, recovery: RecoveryManager
    ) -> None:
        self.env = env
        self.plan = plan
        self.recovery = recovery
        self.fired = 0

    def start(self) -> None:
        """Check the plan's targets against the pool, then spawn the
        injector clock process (no-op for an empty plan)."""
        pool = self.recovery.system.pool
        self.plan.check_targets(pool.gids(), [node.hostname for node in pool.nodes])
        events = self.plan.events_for(pool.gids())
        if events:
            self.env.process(self._run(events), name="fault-injector")

    def _run(self, events: Sequence[FaultEvent]):
        env = self.env
        perf = getattr(env.telemetry, "perf", None)
        for ev in events:
            if ev.t > env.now:
                yield env.timeout(ev.t - env.now)
            if perf is not None:
                perf.push("faults.inject")
            try:
                self._fire(ev)
            finally:
                if perf is not None:
                    perf.pop()
            self.fired += 1

    def _fire(self, ev: FaultEvent) -> None:
        rec = self.recovery
        if ev.kind == "gpu_fail":
            rec.fail_gpu(ev.gid, transient=ev.transient)
            if ev.down_s is not None:
                rec._later(ev.down_s, lambda: rec.recover_gpu(ev.gid))
        elif ev.kind == "gpu_recover":
            rec.recover_gpu(ev.gid)
        elif ev.kind == "backend_crash":
            rec.crash_backend(ev.gid, restart_s=ev.restart_s)
        elif ev.kind == "link_degrade":
            rec.degrade_link(ev.latency_mult, ev.bandwidth_mult)
            if ev.down_s is not None:
                rec._later(ev.down_s, rec.restore_link)
        elif ev.kind == "link_partition":
            rec.partition_host(ev.host)
            if ev.down_s is not None:
                rec._later(ev.down_s, lambda: rec.heal_host(ev.host))
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {ev.kind!r}")


__all__ = ["FaultInjector"]
