"""Tests for trace timelines and the scale-out extension harness."""

import numpy as np
import pytest

from repro.simgpu.trace import (
    BusyTracer,
    Interval,
    concurrency_timeline,
    utilization_timeline,
)
from repro.harness.runner import SCALE_QUICK
from repro.harness import registry, scaleout


# -- BusyTracer edge cases ------------------------------------------------------


def test_tracer_rejects_double_begin():
    t = BusyTracer()
    t.begin("k", 0.0)
    with pytest.raises(ValueError):
        t.begin("k", 1.0)


def test_tracer_rejects_end_without_begin():
    t = BusyTracer()
    with pytest.raises(ValueError):
        t.end("k", 1.0)


def test_tracer_rejects_negative_interval():
    t = BusyTracer()
    t.begin("k", 5.0)
    with pytest.raises(ValueError):
        t.end("k", 1.0)


def test_tracer_drops_zero_duration_intervals():
    t = BusyTracer()
    t.begin("k", 3.0)
    t.end("k", 3.0)
    assert t.intervals == []
    # The pair is consumed: the key can be reopened.
    t.begin("k", 4.0)
    t.end("k", 6.0)
    assert len(t.intervals) == 1
    assert t.intervals[0].duration == pytest.approx(2.0)


def test_snapshot_skips_open_interval_at_horizon():
    t = BusyTracer()
    t.begin("k", 5.0)
    # A zero-length clipped interval would be degenerate: excluded.
    assert t.snapshot(horizon=5.0) == []
    assert t.snapshot(horizon=4.0) == []


def test_snapshot_clips_open_intervals():
    t = BusyTracer()
    t.begin("k", 2.0)
    snap = t.snapshot(horizon=10.0)
    assert len(snap) == 1
    assert snap[0].end == 10.0
    assert t.intervals == []  # still open in the tracer itself


def test_busy_fraction_overlapping_intervals_counted_once():
    t = BusyTracer()
    t.begin("a", 0.0)
    t.begin("b", 0.0)
    t.end("a", 5.0)
    t.end("b", 5.0)
    assert t.busy_fraction(0.0, 10.0) == pytest.approx(0.5)


def test_busy_fraction_empty_window():
    t = BusyTracer()
    assert t.busy_fraction(5.0, 5.0) == 0.0
    assert t.busy_fraction(0.0, 10.0) == 0.0


def test_busy_fraction_inverted_window_is_zero():
    t = BusyTracer()
    t.begin("k", 0.0)
    t.end("k", 10.0)
    assert t.busy_fraction(8.0, 2.0) == 0.0


# -- timelines -----------------------------------------------------------------------


def test_utilization_timeline_full_coverage_is_100():
    iv = [Interval("k", 0.0, 10.0)]
    _, util = utilization_timeline(iv, 0.0, 10.0, bins=10)
    assert np.allclose(util, 100.0)


def test_utilization_timeline_merges_overlapping_intervals():
    # Two overlapping intervals cover [0, 6) once — not 150%.
    ivs = [Interval("a", 0.0, 4.0), Interval("b", 2.0, 6.0)]
    _, util = utilization_timeline(ivs, 0.0, 6.0, bins=6)
    assert np.allclose(util, 100.0)
    # Coverage caps at 100 even with many stacked intervals.
    ivs = [Interval(i, 0.0, 10.0) for i in range(5)]
    _, util = utilization_timeline(ivs, 0.0, 10.0, bins=4)
    assert np.allclose(util, 100.0)


def test_utilization_timeline_gap_between_merged_spans():
    ivs = [Interval("a", 0.0, 2.0), Interval("b", 1.0, 2.0), Interval("c", 8.0, 10.0)]
    _, util = utilization_timeline(ivs, 0.0, 10.0, bins=5)
    assert util[0] == pytest.approx(100.0)  # [0,2) fully covered once
    assert np.allclose(util[1:4], 0.0)
    assert util[4] == pytest.approx(100.0)


def test_utilization_timeline_validation():
    with pytest.raises(ValueError):
        utilization_timeline([], 5.0, 5.0)
    with pytest.raises(ValueError):
        utilization_timeline([], 0.0, 1.0, bins=0)


def test_concurrency_timeline_counts_overlap():
    ivs = [Interval("a", 0.0, 10.0), Interval("b", 0.0, 10.0)]
    _, conc = concurrency_timeline(ivs, 0.0, 10.0, bins=5)
    assert np.allclose(conc, 2.0)


def test_concurrency_timeline_partial():
    ivs = [Interval("a", 0.0, 5.0)]
    _, conc = concurrency_timeline(ivs, 0.0, 10.0, bins=2)
    assert conc[0] == pytest.approx(1.0)
    assert conc[1] == pytest.approx(0.0)


def test_concurrency_timeline_validation():
    with pytest.raises(ValueError):
        concurrency_timeline([], 3.0, 3.0)


# -- scale-out extension -----------------------------------------------------------------


def test_scaleout_monotone_improvement():
    ctx = registry.ExperimentContext(
        scale=SCALE_QUICK.scaled(requests_per_stream=5), options={"max_nodes": 2}
    )
    data = registry.execute("scaleout", ctx)[1]
    assert set(data) == {"1", "2"}
    assert data["1"]["gpus"] == 2
    assert data["2"]["gpus"] == 4
    # More GPUs never hurt this GPU-bound aggregate workload.
    assert data["2"]["mean_completion_s"] <= data["1"]["mean_completion_s"] * 1.05
    assert data["1"]["speedup_vs_1node"] == pytest.approx(1.0)


def test_scaleout_rows_sort_by_node_count_after_roundtrip():
    # Eleven gPool sizes as results.json holds them: the keys are strings,
    # so a plain sort would print 1, 10, 11, 2, ...
    data = registry.roundtrip({
        n: {"gpus": 2 * n, "mean_completion_s": 10.0 / n, "speedup_vs_1node": float(n)}
        for n in range(1, 12)
    })
    text = registry.get("scaleout")().analyze(data, registry.ExperimentContext())
    rows = [line.split() for line in text.splitlines()]
    assert [row[0] for row in rows if row and row[0].isdigit()] == [
        str(n) for n in range(1, 12)
    ]


def test_n_node_cluster_builder():
    from repro.sim import Environment

    env = Environment()
    nodes, net = scaleout.build_n_node_cluster(3)(env)
    assert len(nodes) == 3
    assert all(n.device_count == 2 for n in nodes)
    assert len({n.hostname for n in nodes}) == 3


@pytest.mark.parametrize(
    "testbed",
    [
        "build_small_server",
        "build_single_gpu_server",
        "build_paper_supernode",
        "n_node_cluster",
    ],
)
def test_default_testbeds_record_no_busy_intervals(testbed):
    import repro.cluster as cluster
    from repro.sim import Environment

    build = (
        scaleout.build_n_node_cluster(2)
        if testbed == "n_node_cluster"
        else getattr(cluster, testbed)
    )
    env = Environment()
    nodes, _ = build(env)
    assert all(d.tracer is None for n in nodes for d in n.devices)
    traced, _ = build(env, trace=True)
    assert all(d.tracer is not None for n in traced for d in n.devices)
