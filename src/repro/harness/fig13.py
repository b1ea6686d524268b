"""Figure 13 — GPU scheduling benefit in isolation.

Same paired workloads as Fig. 12, but the baseline is GRR with all four
supernode GPUs shared (same family), so the bars isolate the device-level
scheduling policy's contribution from the sharing benefit.

Paper averages: LAS-Rain 1.40x, LAS-Strings 1.95x, PS-Strings 1.90x.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.pairsweep import family_of, pair_speedup_sweep
from repro.harness.runner import ExperimentScale, SCALE_PAPER

POLICIES = ["LAS-Rain", "LAS-Strings", "PS-Strings"]

PAPER_AVERAGES = {"LAS-Rain": 1.40, "LAS-Strings": 1.95, "PS-Strings": 1.90}


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    return pair_speedup_sweep(
        policies,
        scale,
        tag="fig13",
        baseline_policy_for=lambda p: f"GRR-{family_of(p)}",
        baseline_split_nodes=True,  # 4-GPU-shared GRR baseline
        pair_labels=pair_labels,
    )


@registry.register("fig13")
class Fig13(registry.Experiment):
    """Fig. 13 — device-scheduling benefit isolated from the sharing benefit."""

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
            title="Fig. 13 — GPU scheduling benefit alone "
                  "(vs 4-GPU-shared GRR of the same family)",
        )


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig13", scale=scale)
