"""The GPU Affinity Mapper / workload balancer (paper Section III.C).

Owns the gPool's Device Status Table and the Scheduler Feedback Table,
and services intercepted ``cudaSetDevice`` calls through the Target GPU
Selector.  The Policy Arbiter's *dynamic policy switching* is realized by
the feedback policies themselves: each consults the SFT and falls back to
a static policy for applications the system has not profiled yet, so the
balancer's behaviour upgrades automatically as feedback accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim import Environment
from repro.core.feedback import AppProfile, SchedulerFeedbackTable
from repro.core.gpool import GPool
from repro.core.policies.balancing import BalancingPolicy


@dataclass
class Binding:
    """An application's live assignment to a GID (and the DST estimates
    charged for it, so unbinding is exactly symmetric)."""

    gid: int
    app_name: str
    est_runtime_s: float
    est_utilization: float
    profile: Optional[Tuple[float, float]]  # (transfer_fraction, mem_bw)


class GpuAffinityMapper:
    """Target GPU Selector + Policy Arbiter + gPool bookkeeping."""

    def __init__(
        self,
        env: Environment,
        pool: GPool,
        policy: BalancingPolicy,
        sft: Optional[SchedulerFeedbackTable] = None,
    ) -> None:
        self.env = env
        self.pool = pool
        self.policy = policy
        self.sft = sft if sft is not None else SchedulerFeedbackTable()
        self.bindings_made = 0
        self.feedback_received = 0

    # -- Target GPU Selector ----------------------------------------------

    def bind(self, app_name: str, frontend_host: str) -> Binding:
        """Service an intercepted ``cudaSetDevice``: pick a GID and charge
        the DST with this application's expected footprint."""
        gid = self.policy.select(self.pool, self.pool.dst, app_name, frontend_host)

        # Snapshot the alternatives *before* charging the DST, so the
        # decision log reflects exactly what the policy consulted.
        tel = self.env.telemetry
        scores = (
            self.policy.scores(self.pool, self.pool.dst, app_name, frontend_host)
            if tel.enabled
            else None
        )

        est_rt, est_util, profile = 0.0, 0.0, None
        row = self.sft.lookup(app_name)
        if row is not None:
            est = self.sft.expected_runtime(app_name, gid)
            est_rt = est if est is not None else 0.0
            est_util = row.gpu_utilization
            profile = (row.transfer_fraction, row.memory_bandwidth_gbps)

        if tel.enabled:
            tel.decisions.record_placement(
                t=self.env.now,
                app_name=app_name,
                frontend_host=frontend_host,
                policy=self.policy.name,
                chosen_gid=gid,
                scores=scores,
                est_runtime_s=est_rt,
                sft_known=row is not None,
            )
            tel.counter("mapper.bindings", policy=self.policy.name).inc()

        self.pool.dst.bind(gid, est_rt, est_util, profile)
        self.bindings_made += 1
        return Binding(gid, app_name, est_rt, est_util, profile)

    def unbind(self, binding: Binding) -> None:
        """Release a binding (application exit / ``cudaThreadExit``)."""
        self.pool.dst.unbind(
            binding.gid,
            binding.est_runtime_s,
            binding.est_utilization,
            binding.profile,
        )

    # -- Policy Arbiter feedback path --------------------------------------------

    def deliver_feedback(self, profile: AppProfile) -> None:
        """Fold a device-level profile into the SFT (Feedback Engine →
        Policy Arbiter path, piggybacked on the thread-exit response)."""
        self.sft.update(profile)
        self.feedback_received += 1
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("mapper.feedback_received").inc()

    def __repr__(self) -> str:
        return f"<GpuAffinityMapper policy={self.policy.name} gpus={len(self.pool)}>"


__all__ = ["Binding", "GpuAffinityMapper"]
