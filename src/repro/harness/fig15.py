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

import numpy as np

from repro.harness import registry
from repro.harness.pairsweep import PairFigure

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

    def prepare(self, ctx: registry.ExperimentContext) -> None:
        super().prepare(ctx)
        headline = ctx.parsed_option("cuda_headline", registry.boolean, True)
        # The headline compares MBF with the bare runtime: no MBF, no headline.
        if headline and "MBF-Strings" in self.subset:
            self.extra_systems = ("CUDA",)

    def run(self, ctx: registry.ExperimentContext):
        data = super().run(ctx)
        if self.extra_systems:
            means = data["_means"]
            headline = [
                means["CUDA"][l] / means["MBF-Strings"][l] for l in self.pairs
            ]
            data["mbf_vs_cuda_avg"] = float(np.mean(headline))
        return data

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        out = super().analyze(data, ctx)
        if "mbf_vs_cuda_avg" in data:
            out += (
                f"\nheadline: MBF vs bare CUDA runtime = "
                f"{data['mbf_vs_cuda_avg']:.2f}x (paper: 8.70x)"
            )
        return out

