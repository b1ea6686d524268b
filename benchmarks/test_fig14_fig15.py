"""Benchmarks regenerating Fig. 14 (RTF/GUF) and Fig. 15 (DTF/MBF)."""

import numpy as np

from repro.harness import fig14
from conftest import PAIR_SUBSET, run_experiment


def test_fig14_benchmark():
    """Fig. 14: feedback-based balancing, pair subset."""
    data = run_experiment("fig14", pairs=PAIR_SUBSET)

    # Feedback balancing beats the single-node baseline everywhere.
    for policy in fig14.POLICIES:
        assert data[policy]["avg"] > 1.0, policy

    # Absolute ordering: the Strings feedback systems complete requests
    # faster than their Rain counterparts (paper: 3.23/3.96 vs 2.22/2.51).
    means = data["_means"]
    for fb in ("RTF", "GUF"):
        rain = np.mean(list(means[f"{fb}-Rain"].values()))
        strings = np.mean(list(means[f"{fb}-Strings"].values()))
        assert strings < rain, fb


def test_fig15_benchmark():
    """Fig. 15: Strings-specific DTF and MBF, pair subset + CUDA headline."""
    data = run_experiment("fig15", pairs=PAIR_SUBSET)

    # Both Strings-only feedback policies beat the single-node baseline.
    assert data["DTF-Strings"]["avg"] > 1.0
    assert data["MBF-Strings"]["avg"] > 1.0

    # MBF subsumes DTF's information (paper: best policy overall).
    assert data["MBF-Strings"]["avg"] > 0.9 * data["DTF-Strings"]["avg"]

    # Headline: MBF is far ahead of the bare CUDA runtime (paper: 8.70x).
    assert data["mbf_vs_cuda_avg"] > 2.0
