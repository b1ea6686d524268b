"""Figure 13 — GPU scheduling benefit in isolation.

Same paired workloads as Fig. 12, but the baseline is GRR with all four
supernode GPUs shared (same family), so the bars isolate the device-level
scheduling policy's contribution from the sharing benefit.

Paper averages: LAS-Rain 1.40x, LAS-Strings 1.95x, PS-Strings 1.90x.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.pairsweep import PairFigure
from repro.harness.runner import ExperimentScale, SCALE_PAPER

POLICIES = ["LAS-Rain", "LAS-Strings", "PS-Strings"]

PAPER_AVERAGES = {"LAS-Rain": 1.40, "LAS-Strings": 1.95, "PS-Strings": 1.90}


@registry.register("fig13")
class Fig13(PairFigure):
    """Fig. 13 — device-scheduling benefit isolated from the sharing benefit."""

    policies = POLICIES
    paper_averages = PAPER_AVERAGES
    shared_baseline = True  # 4-GPU-shared GRR baseline
    title = (
        "Fig. 13 — GPU scheduling benefit alone "
        "(vs 4-GPU-shared GRR of the same family)"
    )


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    return Fig13().sweep(scale, pair_labels, policies)


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig13", scale=scale)
