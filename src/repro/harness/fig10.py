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

from typing import Dict, Sequence

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.pairsweep import PairFigure
from repro.harness.runner import ExperimentScale, SCALE_PAPER

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


@registry.register("fig10")
class Fig10(PairFigure):
    """Fig. 10 — supernode-sharing speedup per workload pair and policy."""

    policies = POLICIES
    paper_averages = PAPER_AVERAGES
    title = (
        "Fig. 10 — speedup from sharing the 4-GPU supernode "
        "(vs single-node GRR of the same system family)"
    )

    def sweep(self, *args, **kw):
        data = super().sweep(*args, **kw)
        del data["_means"]  # the figure reports speedups only
        return data


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
) -> Dict[str, Dict[str, float]]:
    """speedup[policy][pair_label] plus 'avg' per policy."""
    return Fig10().sweep(scale, pair_labels, policies)


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig10", scale=scale)
