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

from typing import Dict, Sequence

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.pairsweep import PairFigure
from repro.harness.runner import ExperimentScale, SCALE_PAPER

POLICIES = ["RTF-Rain", "GUF-Rain", "RTF-Strings", "GUF-Strings"]

PAPER_AVERAGES = {
    "RTF-Rain": 2.22,
    "GUF-Rain": 2.51,
    "RTF-Strings": 3.23,
    "GUF-Strings": 3.96,
}


@registry.register("fig14")
class Fig14(PairFigure):
    """Fig. 14 — feedback balancing (RTF/GUF) with pre-warmed profiles."""

    policies = POLICIES
    paper_averages = PAPER_AVERAGES
    prewarm = True
    title = (
        "Fig. 14 — feedback-based load balancing "
        "(vs single-node GRR of the same family; SFT pre-warmed)"
    )


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    return Fig14().sweep(scale, pair_labels, policies)


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig14", scale=scale)
