"""Chaos harness — self-healing under injected faults (extension).

Not part of the paper's evaluation: the paper measures a healthy
cluster.  This scenario offers three tenants (DC, HI, MC) to the 4-GPU
supernode at the paired-workload load factor, then kills one GPU
mid-run and crashes another's backend process.  A healthy reliability
subsystem (``repro.faults``) re-dispatches every aborted request to the
surviving GPUs, so the acceptance bar is **zero lost requests** while
the availability summary shows real per-tenant downtime.
"""

from __future__ import annotations

from typing import Dict, Optional

import repro.faults as faults
from repro.sim.rng import RandomStream
from repro.cluster import build_paper_supernode
from repro.apps.catalog import app_by_short
from repro.faults import FaultPlan, RetryPolicy
from repro.metrics import mean_completion_s
from repro.workloads import exponential_stream
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import (
    ExperimentScale,
    SCALE_PAPER,
    run_stream_experiment,
    system_factories,
)

#: (app short, tenant, node) — one long-, one medium-, one short-running
#: tenant so the outage catches requests in every phase.
TENANTS = [("DC", "t0", 0), ("HI", "t1", 1), ("MC", "t2", 0)]

DEFAULT_POLICY = "GMin-Strings"


def chaos_streams(scale: ExperimentScale):
    """The three tenants' request streams."""
    rng = RandomStream(scale.seed, "chaos")
    return [
        exponential_stream(
            app_by_short(short),
            rng.spawn(short),
            scale.requests_per_stream,
            scale.pair_load_factor,
            node_index=node,
            tenant_id=tenant,
        )
        for short, tenant, node in TENANTS
    ]


def default_plan(streams) -> FaultPlan:
    """One device loss plus one backend crash, timed inside the arrival span."""
    horizon = max(s.horizon_s for s in streams)
    plan = FaultPlan(retry=RetryPolicy(max_retries=8), warmup_s=2.0)
    # GPU 1 disappears a third of the way in and stays down for a quarter
    # of the span; GPU 0's backend process crashes later and restarts.
    plan.gpu_fail(0.30 * horizon, gid=1, down_s=0.25 * horizon)
    plan.backend_crash(0.55 * horizon, gid=0, restart_s=2.0)
    return plan


def run(
    scale: ExperimentScale = SCALE_PAPER,
    policy: str = DEFAULT_POLICY,
    plan: Optional[FaultPlan] = None,
    telemetry=None,
) -> Dict[str, object]:
    """Run the chaos scenario; returns offered/completed/lost and the
    recovery manager's availability summary."""
    streams = chaos_streams(scale)
    if plan is None:
        # An installed plan (harness --faults) overrides the built-in scenario.
        plan = faults.current_plan() or default_plan(streams)
    res = run_stream_experiment(
        system_factories()[policy],
        streams,
        build_paper_supernode,
        label=f"chaos:{policy}",
        telemetry=telemetry,
        fault_plan=plan,
    )
    offered, completed = res.offered, res.completed
    summary = res.faults_summary or {}
    return {
        "policy": policy,
        "offered": offered,
        "completed": completed,
        "lost": summary.get("requests_lost", offered - completed),
        "redispatched": summary.get("requests_redispatched", 0),
        "retries": summary.get("retries", 0),
        "faults_injected": summary.get("faults_injected", {}),
        "tenant_downtime_s": summary.get("tenant_downtime_s", {}),
        "gpu_downtime_s": summary.get("gpu_downtime_s", {}),
        "mean_completion_s": mean_completion_s(res.results) if res.results else 0.0,
        "sim_time_s": res.sim_time_s,
        "goodput_rps": completed / res.sim_time_s if res.sim_time_s > 0 else 0.0,
    }


@registry.register("chaos")
class Chaos(registry.Experiment):
    """Chaos — zero-loss self-healing under an injected GPU loss + crash."""

    options = {"policy": "system factory name (default GMin-Strings)"}

    def run(self, ctx: registry.ExperimentContext):
        return run(
            ctx.scale,
            policy=str(ctx.option("policy", DEFAULT_POLICY)),
            telemetry=ctx.telemetry,
        )

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        downtime = data["tenant_downtime_s"]
        rows = [
            [tenant, short, f"node{node}", downtime.get(tenant, 0.0)]
            for short, tenant, node in TENANTS
        ]
        out = format_table(
            ["Tenant", "App", "Frontend", "Fault downtime (s)"],
            rows,
            title="Chaos — per-tenant fault-attributable downtime "
            f"({data['policy']}, 4-GPU supernode)",
        )
        lines = [
            out,
            f"faults injected: {data['faults_injected']}  "
            f"retries: {data['retries']}  re-dispatched: {data['redispatched']}",
            f"goodput: {data['goodput_rps']:.3f} req/s  "
            f"mean completion: {data['mean_completion_s']:.2f}s  "
            f"GPU downtime: "
            + ", ".join(
                f"GPU{g}={s:.1f}s" for g, s in sorted(data["gpu_downtime_s"].items())
            ),
            f"[chaos] requests lost: {data['lost']} of {data['offered']} offered",
        ]
        return "\n".join(lines)


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("chaos", scale=scale)
