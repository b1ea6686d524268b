"""Figure 10 — benefits of GPU sharing on the emulated 4-GPU supernode.

One node receives a stream of long-running requests (the pair's Group A
application), the other a stream of short requests (Group B); the
workload balancer may place requests on any of the supernode's four
GPUs.  The baseline is the *single-node GRR* configuration of the
previous experiment — per system family (GRR-Rain single node for the
Rain rows, GRR-Strings single node for the Strings rows), so each bar
isolates the benefit of sharing all four GPUs.

Paper averages over the 24 pairs: GRR-Rain 1.60x, GMin-Rain 1.80x,
GWtMin-Rain 1.82x, GRR-Strings 2.64x, GMin-Strings 2.69x,
GWtMin-Strings 2.88x; the largest speedups occur for pairs containing
BlackScholes or Gaussian (I, K, W).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.sim.rng import RandomStream
from repro.cluster import build_paper_supernode, build_small_server
from repro.metrics import mean_completion_s
from repro.workloads import PAIRS, exponential_stream, pair_apps
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
    "GRR-Rain": 1.60,
    "GMin-Rain": 1.80,
    "GWtMin-Rain": 1.82,
    "GRR-Strings": 2.64,
    "GMin-Strings": 2.69,
    "GWtMin-Strings": 2.88,
}


def pair_streams(label: str, scale: ExperimentScale, split_nodes: bool):
    """The two request streams of one workload pair.

    ``split_nodes=True`` sends the long stream to node 0 and the short
    stream to node 1 (supernode experiment); ``False`` sends both to
    node 0 (single-node baseline).
    """
    app_a, app_b = pair_apps(label)
    rng = RandomStream(scale.seed, "fig10", label)
    stream_a = exponential_stream(
        app_a, rng.spawn("A"), scale.requests_per_stream, scale.pair_load_factor,
        node_index=0, tenant_id="tenantA",
    )
    stream_b = exponential_stream(
        app_b, rng.spawn("B"), scale.requests_per_stream, scale.pair_load_factor,
        node_index=1 if split_nodes else 0, tenant_id="tenantB",
    )
    return [stream_a, stream_b]


def _family_baseline(policy: str) -> str:
    return "GRR-Rain" if policy.endswith("Rain") else "GRR-Strings"


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    """speedup[policy][pair_label] plus 'avg' per policy."""
    factories = system_factories()
    speedups: Dict[str, Dict[str, float]] = {p: {} for p in policies}

    for label in pair_labels:
        base_means: Dict[str, float] = {}
        for fam in {"GRR-Rain", "GRR-Strings"} & {_family_baseline(p) for p in policies}:
            base = run_stream_experiment(
                factories[fam],
                pair_streams(label, scale, split_nodes=False),
                build_small_server,
                label=f"{fam}-1node",
            )
            base_means[fam] = mean_completion_s(base.results)

        for policy in policies:
            res = run_stream_experiment(
                factories[policy],
                pair_streams(label, scale, split_nodes=True),
                build_paper_supernode,
                label=policy,
            )
            speedups[policy][label] = base_means[_family_baseline(policy)] / mean_completion_s(
                res.results
            )

    for policy in policies:
        vals = [speedups[policy][l] for l in pair_labels]
        speedups[policy]["avg"] = float(np.mean(vals))
    return speedups


@registry.register("fig10")
class Fig10(registry.Experiment):
    """Fig. 10 — supernode-sharing speedup per workload pair and policy."""

    options = {
        "pairs": 'pair labels, e.g. ["A","G"]',
        "policies": "policy subset",
    }

    def run(self, ctx: registry.ExperimentContext):
        return run(
            ctx.scale,
            pair_labels=tuple(ctx.option("pairs", tuple(PAIRS))),
            policies=tuple(ctx.option("policies", tuple(POLICIES))),
        )

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        policies = [p for p in POLICIES if p in data]
        labels = [
            l for l in PAIRS if policies and l in data[policies[0]]
        ]
        rows: List[list] = []
        for policy in policies:
            rows.append(
                [policy]
                + [data[policy][l] for l in labels]
                + [data[policy]["avg"], PAPER_AVERAGES[policy]]
            )
        return format_table(
            ["Policy"] + labels + ["AVG", "AVG(paper)"],
            rows,
            title="Fig. 10 — speedup from sharing the 4-GPU supernode "
                  "(vs single-node GRR of the same system family)",
        )


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig10", scale=scale)
