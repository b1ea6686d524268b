"""Figure 14 — feedback-based load balancing (RTF / GUF).

The 24 pairs on the supernode under the runtime-feedback and
GPU-utilization-feedback policies for both Rain and Strings.  The systems
are pre-warmed (the SFT already holds each application's profile — the
steady state after the Policy Arbiter's dynamic switching).  Baseline:
single-node GRR of the same family.

Paper averages: RTF-Rain 2.22x, GUF-Rain 2.51x, RTF-Strings 3.23x,
GUF-Strings 3.96x; GUF shines on pairs with contrasting GPU utilization.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.pairsweep import family_of, pair_speedup_sweep
from repro.harness.runner import ExperimentScale, SCALE_PAPER

POLICIES = ["RTF-Rain", "GUF-Rain", "RTF-Strings", "GUF-Strings"]

PAPER_AVERAGES = {
    "RTF-Rain": 2.22,
    "GUF-Rain": 2.51,
    "RTF-Strings": 3.23,
    "GUF-Strings": 3.96,
}


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    return pair_speedup_sweep(
        policies,
        scale,
        tag="fig14",
        baseline_policy_for=lambda p: f"GRR-{family_of(p)}",
        baseline_split_nodes=False,
        pair_labels=pair_labels,
        prewarm=True,
    )


@registry.register("fig14")
class Fig14(registry.Experiment):
    """Fig. 14 — feedback balancing (RTF/GUF) with pre-warmed profiles."""

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
        labels = [l for l in PAIRS if policies and l in data[policies[0]]]
        rows: List[list] = [
            [p] + [data[p][l] for l in labels] + [data[p]["avg"], PAPER_AVERAGES[p]]
            for p in policies
        ]
        return format_table(
            ["Policy"] + labels + ["AVG", "AVG(paper)"],
            rows,
            title="Fig. 14 — feedback-based load balancing "
                  "(vs single-node GRR of the same family; SFT pre-warmed)",
        )


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig14", scale=scale)
