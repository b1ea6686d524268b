"""Figure 13 — GPU scheduling benefit in isolation.

Same paired workloads as Fig. 12, but the baseline is GRR with all four
supernode GPUs shared (same family), so the bars isolate the device-level
scheduling policy's contribution from the sharing benefit.

Paper averages: LAS-Rain 1.40x, LAS-Strings 1.95x, PS-Strings 1.90x.
"""

from __future__ import annotations

from repro.harness import registry
from repro.harness.pairsweep import PairFigure

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

