"""Benchmarks regenerating Table I, Fig. 1 and Fig. 2."""

import pytest

from repro.harness import table1
from repro.apps import ALL_APPS
from repro.apps.catalog import PAPER_BANDWIDTH_MBPS
from conftest import run_experiment


def test_table1_benchmark():
    """Table I: solo application characteristics."""
    measured = run_experiment("table1")

    for app in ALL_APPS:
        m = measured[app.short]
        paper_gpu, paper_tx = table1.PAPER_TABLE1[app.short]
        # GPU-time and transfer fractions track the paper's table closely.
        assert m["gpu_pct"] == pytest.approx(paper_gpu, rel=0.10, abs=0.6)
        assert m["transfer_pct"] == pytest.approx(paper_tx, rel=0.25, abs=1.5)

    # Memory-bandwidth *ranking* is preserved (absolute values rescaled).
    ours = sorted(measured, key=lambda s: measured[s]["bandwidth_mbps"])
    paper = sorted(PAPER_BANDWIDTH_MBPS, key=PAPER_BANDWIDTH_MBPS.get)
    assert ours == paper


def test_fig1_benchmark():
    """Fig. 1: compute/memory characteristic classes."""
    data = run_experiment("fig1")
    # The paper's motivating contrast: some apps heavily compute-loaded,
    # some memory-loaded, some negligible on both axes.
    assert data["DC"]["compute_pct"] > 80
    assert data["HI"]["memory_pct"] > 80
    assert data["GA"]["compute_class"] == "green"
    assert data["GA"]["memory_class"] == "green"


def test_fig2_benchmark():
    """Fig. 2: sequential vs concurrent Monte-Carlo utilization."""
    data = run_experiment("fig2")
    seq, conc = data["sequential"], data["concurrent"]
    # Context packing removes every context switch (the 'glitches')...
    assert seq["ctx_switches"] > 0
    assert conc["ctx_switches"] == 0
    assert conc["glitch_idle_s"] == 0.0
    # ...and absorbs the same burst pattern with faster completions.
    assert conc["mean_completion_s"] < seq["mean_completion_s"]
