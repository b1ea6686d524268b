"""Figure 12 — throughput-oriented GPU scheduling with GPU sharing.

The 24 workload pairs on the supernode under the best balancing policy
(GWtMin) combined with device-level scheduling: LAS for Rain and
Strings, PS for Strings.  Baseline: single-node GRR of the same family.

Paper averages: GWtMin+LAS-Rain 2.18x, GWtMin+LAS-Strings 3.10x,
GWtMin+PS-Strings 2.97x — PS within ~4% of LAS-Strings but ~27% above
LAS-Rain.
"""

from __future__ import annotations

from repro.harness import registry
from repro.harness.pairsweep import PairFigure

POLICIES = ["GWtMin+LAS-Rain", "GWtMin+LAS-Strings", "GWtMin+PS-Strings"]

PAPER_AVERAGES = {
    "GWtMin+LAS-Rain": 2.18,
    "GWtMin+LAS-Strings": 3.10,
    "GWtMin+PS-Strings": 2.97,
}


@registry.register("fig12")
class Fig12(PairFigure):
    """Fig. 12 — GPU scheduling + sharing speedup (GWtMin with LAS/PS)."""

    policies = POLICIES
    paper_averages = PAPER_AVERAGES
    title = (
        "Fig. 12 — weighted speedup of GPU scheduling + sharing "
        "(vs single-node GRR of the same family)"
    )

