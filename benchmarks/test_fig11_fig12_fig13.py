"""Benchmarks regenerating Fig. 11 (fairness) and Figs. 12-13 (scheduling)."""

import numpy as np

from repro.harness import fig12
from conftest import PAIR_SUBSET, run_experiment


def test_fig11_benchmark():
    """Fig. 11: Jain's fairness of TFS vs the CUDA runtime, pair subset."""
    data = run_experiment("fig11", pairs=PAIR_SUBSET)

    cuda = data["CUDA"]["avg"]
    rain = data["TFS-Rain"]["avg"]
    strings = data["TFS-Strings"]["avg"]

    # The paper's ordering: TFS-Strings > TFS-Rain > CUDA runtime.
    assert strings > rain > cuda
    # TFS-Strings is near-ideal on its best pair (paper: 99.99%).
    assert data["TFS-Strings"]["max"] > 0.99
    # And strong on average (paper: 91%).
    assert strings > 0.9


def test_fig12_benchmark():
    """Fig. 12: throughput scheduling + sharing, pair subset."""
    data = run_experiment("fig12", pairs=PAIR_SUBSET)

    # Scheduling + 4-GPU sharing beats the single-node deployment.
    for policy in fig12.POLICIES:
        assert data[policy]["avg"] > 1.0, policy

    # PS tracks LAS under Strings (paper: within ~4%) - both throughput
    # policies land in the same band.
    las = data["GWtMin+LAS-Strings"]["avg"]
    ps = data["GWtMin+PS-Strings"]["avg"]
    assert ps > 0.75 * las

    # Absolute completion times: Strings schedulers beat the Rain one.
    means = data["_means"]
    las_rain = np.mean(list(means["GWtMin+LAS-Rain"].values()))
    las_strings = np.mean(list(means["GWtMin+LAS-Strings"].values()))
    assert las_strings < las_rain


def test_fig13_benchmark():
    """Fig. 13: device scheduling benefit vs 4-GPU-shared GRR, pair subset."""
    data = run_experiment("fig13", pairs=PAIR_SUBSET)

    # Absolute ordering: LAS-Strings completes requests faster than
    # LAS-Rain on the same workloads (paper: 1.95x vs 1.40x).
    means = data["_means"]
    las_rain = np.mean(list(means["LAS-Rain"].values()))
    las_strings = np.mean(list(means["LAS-Strings"].values()))
    ps_strings = np.mean(list(means["PS-Strings"].values()))
    assert las_strings < las_rain
    # PS lands in LAS-Strings' neighbourhood (paper: within ~4%).
    assert ps_strings < 1.35 * las_strings
