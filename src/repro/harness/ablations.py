"""Ablation experiments for Strings' design choices (DESIGN.md §5).

Quantifies, on fixed workloads, the contribution of each mechanism:
context packing, the Memory Operation Translator, the Sync Stream
Translator, the TFS history penalty, the LAS decay constant, the Policy
Arbiter's cold-start switching, and Design II's head-of-line blocking.

Run:  python -m repro.harness ablations
"""

from __future__ import annotations

from typing import Dict, List

import repro.faults as faults
from repro.cluster import build_single_gpu_server, build_small_server
from repro.core import Design2System, RainSystem, StringsSystem
from repro.core.arbiter import install_arbiter
from repro.core.config import SchedulerConfig
from repro.core.policies import GMin, LAS, MBF, TFS
from repro.apps import app_by_short
from repro.metrics import jains_fairness
from repro.workloads import Request, RequestStream
from repro.harness import registry
from repro.harness.runner import (
    ExperimentScale,
    SCALE_PAPER,
    closed_loop_shared_run,
    run_stream_experiment,
    solo_completion_time,
)


def _batch(make_system, shorts, testbed=build_small_server):
    """One request per app short (tenants t0, t1, ...), all arriving at
    t=0 on node 0; returns the run's per-request results.

    Every ablation reads every request, so a fault plan that loses one
    is an error, not a shorter batch."""
    stream = RequestStream(
        [Request(app_by_short(short), 0.0, tenant_id=f"t{i}") for i, short in enumerate(shorts)]
    )
    run = run_stream_experiment(make_system, [stream], testbed, label="ablation")
    if run.failed:
        lost = [s for s in dict.fromkeys(shorts) if run.per_app.get(s, 0) < shorts.count(s)]
        raise faults.FaultPlanError(
            f"the fault plan lost {run.failed} of the ablation's requests "
            f"({', '.join(lost)}; retries={faults.current_plan().retry.max_retries} ran out)"
        )
    return run.results


def _makespan(make_system, shorts) -> float:
    return max(r.finish_s for r in _batch(make_system, shorts))


def _ga_next_to_dc(make_system) -> float:
    """The short tenant's (GA) completion time next to DC on one GPU."""
    results = _batch(make_system, ["DC", "GA"], build_single_gpu_server)
    return next(r.completion_s for r in results if r.app == "GA")


def ablate_context_packing() -> Dict[str, float]:
    """Design III vs Design I on a mixed 4-request workload."""
    workload = ["MC", "DC", "MC", "DC"]
    return {
        "Strings (packed)": _makespan(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GMin()), workload
        ),
        "Rain (Design I)": _makespan(
            lambda e, n, w: RainSystem(e, n, w, balancing=GMin()), workload
        ),
    }


def ablate_mot() -> Dict[str, float]:
    """Async pinned staging vs sync pageable memcpys (2x MonteCarlo)."""
    return {
        "MOT on": _makespan(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GMin(), mot_enabled=True),
            ["MC", "MC"],
        ),
        "MOT off": _makespan(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GMin(), mot_enabled=False),
            ["MC", "MC"],
        ),
    }


def ablate_sst() -> Dict[str, float]:
    """Stream-narrowed vs whole-context sync: the short tenant's latency."""
    return {
        label: _ga_next_to_dc(
            lambda e, n, w, on=enabled: StringsSystem(
                e, n, w, balancing=GMin(), sst_enabled=on
            )
        )
        for label, enabled in (("SST on", True), ("SST off", False))
    }


def ablate_backend_designs() -> Dict[str, object]:
    """Head-of-line blocking across the paper's three backend designs.

    One long tenant (DC) and one short tenant (GA) on one GPU.  Under
    Design II, both tenants' calls funnel through the device's single
    master thread, so DC's blocking calls stall GA's queued work; Design
    III gives GA its own issue thread and Design I its own process.  The
    short tenant's completion time is the penalty's measure, summarised
    as ``hol_blocking_penalty_x`` (Design II / Design III).
    """
    out: Dict[str, object] = {
        label: _ga_next_to_dc(lambda e, n, w, c=cls: c(e, n, w, balancing=GMin()))
        for label, cls in (
            ("Design I (Rain)", RainSystem),
            ("Design II (shared master)", Design2System),
            ("Design III (Strings)", StringsSystem),
        )
    }
    out["hol_blocking_penalty_x"] = (
        out["Design II (shared master)"] / out["Design III (Strings)"]
    )
    return out


def ablate_tfs_history(window_s: float = 60.0) -> Dict[str, float]:
    """Jain fairness with and without the TFS overshoot history."""
    out = {}
    for label, history in (("history on", True), ("history off", False)):
        cfg = SchedulerConfig(tfs_history_penalty=history)

        def factory(env, nodes, net, c=cfg):
            return StringsSystem(
                env, nodes, net, balancing=GMin(), device_policy=TFS, config=c
            )

        apps = [app_by_short("DC"), app_by_short("MC")]
        solo = {
            a.short: solo_completion_time(factory, a, build_single_gpu_server)
            for a in apps
        }
        shared = closed_loop_shared_run(
            factory, apps, build_single_gpu_server, window_s=window_s
        )
        out[label] = jains_fairness(
            [solo[a.short] / shared[a.short] for a in apps]
        )
    return out


def ablate_las_k(window_s: float = 60.0) -> Dict[str, Dict[str, float]]:
    """Per-app completion under LAS for several decay constants."""
    out: Dict[str, Dict[str, float]] = {}
    for k in (0.2, 0.5, 0.8, 1.0):
        cfg = SchedulerConfig(las_k=k)

        def factory(env, nodes, net, c=cfg):
            return StringsSystem(
                env, nodes, net, balancing=GMin(), device_policy=LAS, config=c
            )

        # Five tenants (> the 3 wake slots) so the LAS priority actually
        # excludes someone and the decay constant matters.
        out[f"k={k}"] = closed_loop_shared_run(
            factory,
            [app_by_short(a) for a in ("DC", "HI", "MM", "BS", "GA")],
            build_single_gpu_server,
            window_s=window_s,
        )
    return out


def ablate_arbiter_cold_start() -> Dict[str, object]:
    """Dynamic policy switching: profiles needed before MBF takes over."""
    arbiters = []

    def factory(env, nodes, net):
        system = StringsSystem(env, nodes, net, balancing=GMin())
        arbiters.append(
            install_arbiter(
                system, GMin(), MBF(system.sft), min_profiles=3, min_distinct_apps=2
            )
        )
        return system

    _batch(factory, ["BS", "GA", "BS", "GA", "BS", "GA"])
    arbiter = arbiters[0]
    return {
        "switched": arbiter.switched,
        "switched_at_profile": arbiter.switched_at_profile,
        "transitions": arbiter.transitions,
    }


def run(scale: ExperimentScale = SCALE_PAPER) -> Dict[str, object]:
    """All ablations; returns a nested dict of results."""
    return {
        "context_packing_makespan_s": ablate_context_packing(),
        "mot_makespan_s": ablate_mot(),
        "sst_short_tenant_completion_s": ablate_sst(),
        "backend_design_ga_completion_s": ablate_backend_designs(),
        "tfs_history_fairness": ablate_tfs_history(scale.fairness_window_s / 2),
        "las_k_completions_s": ablate_las_k(scale.fairness_window_s / 2),
        "arbiter_cold_start": ablate_arbiter_cold_start(),
    }


@registry.register("ablations", aliases=("ablate",))
class Ablations(registry.Experiment):
    """Ablations — per-mechanism contribution of Strings' design choices."""

    def run(self, ctx: registry.ExperimentContext):
        return run(ctx.scale)

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        lines: List[str] = ["Ablations — contribution of each Strings mechanism", ""]

        for title, key, unit in (
            ("Context packing (makespan, 2xMC + 2xDC)", "context_packing_makespan_s", "s"),
            ("Memory Operation Translator (makespan, 2xMC)", "mot_makespan_s", "s"),
            ("Sync Stream Translator (GA completion next to DC)", "sst_short_tenant_completion_s", "s"),
            ("TFS history penalty (Jain fairness)", "tfs_history_fairness", ""),
        ):
            block = data[key]
            lines.append(title)
            for label, value in block.items():
                lines.append(f"  {label:18s} {value:8.3f}{unit}")
            lines.append("")

        designs = data["backend_design_ga_completion_s"]
        lines.append("Backend designs (GA completion next to DC, Fig. 5)")
        for label, value in designs.items():
            if label == "hol_blocking_penalty_x":
                continue
            lines.append(f"  {label:26s} {value:8.3f}s")
        lines.append(
            "  Design II head-of-line blocking penalty: "
            f"{designs['hol_blocking_penalty_x']:.2f}x vs Design III"
        )
        lines.append("")

        lines.append("LAS decay constant k (per-app mean completion, 5 tenants)")
        for k, shared in data["las_k_completions_s"].items():
            cells = "  ".join(f"{a} {t:7.2f}s" for a, t in sorted(shared.items()))
            lines.append(f"  {k:6s} {cells}")
        lines.append("")

        cold = data["arbiter_cold_start"]
        # The arbiter reports transitions as (profile_count, policy)
        # tuples; the JSON round-trip turns tuples into lists, so re-tuple
        # before rendering to keep the report stable across live and
        # cached analysis.
        transitions = [tuple(t) for t in cold["transitions"]]
        lines.append(
            "Policy Arbiter cold start: switched="
            f"{cold['switched']} at profile {cold['switched_at_profile']} "
            f"(transitions {transitions})"
        )
        return "\n".join(lines)


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("ablations", scale=scale)
