"""Figure 9 — workload balancing vs the CUDA runtime (1 node, 2 GPUs).

For each Table-I application, a stream of requests with exponential
inter-arrival times is served by the small-scale server.  The figure
reports, per application and averaged, the relative speedup in mean
request completion time of each balancing policy (GRR / GMin / GWtMin,
for Rain and Strings) over the bare CUDA runtime.

Paper averages: GRR-Rain 2.16x, GMin-Rain 2.37x, GWtMin-Rain 2.34x,
GRR-Strings 3.10x, GMin-Strings 4.90x, GWtMin-Strings 4.73x.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.sim.rng import RandomStream
from repro.cluster import build_small_server
from repro.apps import ALL_APPS
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

POLICIES = [
    "GRR-Rain",
    "GMin-Rain",
    "GWtMin-Rain",
    "GRR-Strings",
    "GMin-Strings",
    "GWtMin-Strings",
]

PAPER_AVERAGES = {
    "GRR-Rain": 2.16,
    "GMin-Rain": 2.37,
    "GWtMin-Rain": 2.34,
    "GRR-Strings": 3.10,
    "GMin-Strings": 4.90,
    "GWtMin-Strings": 4.73,
}


def run(
    scale: ExperimentScale = SCALE_PAPER,
    apps=None,
    policies=None,
) -> Dict[str, Dict[str, float]]:
    """speedup[policy][app_short] plus speedup[policy]['avg'].

    ``apps``/``policies`` restrict the sweep (None = the full figure).
    """
    apps = list(ALL_APPS) if apps is None else [a for a in ALL_APPS if a.short in apps]
    policies = list(POLICIES) if policies is None else list(policies)
    factories = system_factories()
    speedups: Dict[str, Dict[str, float]] = {p: {} for p in policies}

    for app in apps:
        stream_rng = RandomStream(scale.seed, "fig9", app.short)
        stream = exponential_stream(
            app, stream_rng, scale.requests_per_stream, scale.load_factor
        )
        base = run_stream_experiment(
            factories["CUDA"], [stream], build_small_server, label="CUDA"
        )
        base_mean = mean_completion_s(base.results)
        for policy in policies:
            res = run_stream_experiment(
                factories[policy], [stream], build_small_server, label=policy
            )
            speedups[policy][app.short] = base_mean / mean_completion_s(res.results)

    for policy in policies:
        speedups[policy]["avg"] = float(
            np.mean([speedups[policy][a.short] for a in apps])
        )
    return speedups


@registry.register("fig9")
class Fig9(registry.Experiment):
    """Fig. 9 — per-app speedup of each balancing policy over the CUDA runtime."""

    options = {
        "apps": 'app shorts to run, e.g. ["GA","MC"]',
        "policies": 'policy subset, e.g. ["GMin-Strings"]',
    }

    def run(self, ctx: registry.ExperimentContext):
        return run(
            ctx.scale,
            apps=ctx.option("apps"),
            policies=ctx.option("policies"),
        )

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        policies = [p for p in POLICIES if p in data]
        apps = [
            a.short for a in ALL_APPS
            if policies and a.short in data[policies[0]]
        ]
        rows: List[list] = []
        for policy in policies:
            rows.append(
                [policy]
                + [data[policy][a] for a in apps]
                + [data[policy]["avg"], PAPER_AVERAGES[policy]]
            )
        return format_table(
            ["Policy"] + apps + ["AVG", "AVG(paper)"],
            rows,
            title="Fig. 9 — relative speedup over the CUDA runtime "
                  "(single node, 2 GPUs, per-app request streams)",
        )


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig9", scale=scale)
