"""Figure 12 — throughput-oriented GPU scheduling with GPU sharing.

The 24 workload pairs on the supernode under the best balancing policy
(GWtMin) combined with device-level scheduling: LAS for Rain and
Strings, PS for Strings.  Baseline: single-node GRR of the same family.

Paper averages: GWtMin+LAS-Rain 2.18x, GWtMin+LAS-Strings 3.10x,
GWtMin+PS-Strings 2.97x — PS within ~4% of LAS-Strings but ~27% above
LAS-Rain.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.pairsweep import family_of, pair_speedup_sweep
from repro.harness.runner import ExperimentScale, SCALE_PAPER

POLICIES = ["GWtMin+LAS-Rain", "GWtMin+LAS-Strings", "GWtMin+PS-Strings"]

PAPER_AVERAGES = {
    "GWtMin+LAS-Rain": 2.18,
    "GWtMin+LAS-Strings": 3.10,
    "GWtMin+PS-Strings": 2.97,
}


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    return pair_speedup_sweep(
        policies,
        scale,
        tag="fig12",
        baseline_policy_for=lambda p: f"GRR-{family_of(p)}",
        baseline_split_nodes=False,
        pair_labels=pair_labels,
    )


@registry.register("fig12")
class Fig12(registry.Experiment):
    """Fig. 12 — GPU scheduling + sharing speedup (GWtMin with LAS/PS)."""

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
            title="Fig. 12 — weighted speedup of GPU scheduling + sharing "
                  "(vs single-node GRR of the same family)",
        )


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig12", scale=scale)
