"""Figure 15 — Strings-specific feedback policies (DTF / MBF).

DTF (data-transfer feedback) and MBF (memory-bandwidth feedback) exploit
CUDA streams and context packing, so they exist only for Strings.
Baseline: single-node GRR-Strings; the paper also quotes the headline
"8.70x vs the bare CUDA runtime" for MBF, which we report from a direct
CUDA measurement on the same paired workloads.

Paper averages: DTF 3.73x, MBF 4.02x (best overall); DTF shines when one
app is compute-heavy and the other transfer-heavy; MBF subsumes RTF+DTF
information and wins nearly everywhere.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.workloads import PAIRS
from repro.harness import registry
from repro.harness.pairsweep import PairFigure
from repro.harness.runner import ExperimentScale, SCALE_PAPER

POLICIES = ["DTF-Strings", "MBF-Strings"]

PAPER_AVERAGES = {"DTF-Strings": 3.73, "MBF-Strings": 4.02}


@registry.register("fig15")
class Fig15(PairFigure):
    """Fig. 15 — Strings-only feedback (DTF/MBF) plus the CUDA headline."""

    options = {
        **PairFigure.options,
        "cuda_headline": "also run the CUDA-runtime headline (default true)",
    }
    policies = POLICIES
    paper_averages = PAPER_AVERAGES
    prewarm = True
    title = (
        "Fig. 15 — Strings-specific feedback policies "
        "(vs single-node GRR-Strings; SFT pre-warmed)"
    )

    def sweep(
        self, scale, pair_labels=tuple(PAIRS), policies=None, include_cuda_headline=True
    ):
        data = super().sweep(
            scale, pair_labels, policies,
            extra_systems=("CUDA",) if include_cuda_headline else (),
        )
        if include_cuda_headline:
            means = data["_means"]
            headline = [
                means["CUDA"][l] / means["MBF-Strings"][l] for l in pair_labels
            ]
            data["mbf_vs_cuda_avg"] = float(np.mean(headline))
        return data

    def run(self, ctx: registry.ExperimentContext):
        return self.sweep(
            ctx.scale,
            pair_labels=tuple(ctx.option("pairs", tuple(PAIRS))),
            policies=tuple(ctx.option("policies", tuple(self.policies))),
            include_cuda_headline=bool(ctx.option("cuda_headline", True)),
        )

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        out = super().analyze(data, ctx)
        if "mbf_vs_cuda_avg" in data:
            out += (
                f"\nheadline: MBF vs bare CUDA runtime = "
                f"{data['mbf_vs_cuda_avg']:.2f}x (paper: 8.70x)"
            )
        return out


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    policies: Sequence[str] = tuple(POLICIES),
    include_cuda_headline: bool = True,
) -> Dict[str, Dict[str, float]]:
    return Fig15().sweep(scale, pair_labels, policies, include_cuda_headline)


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig15", scale=scale)
