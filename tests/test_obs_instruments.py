"""Unit tests for the observability instruments and registry."""

import json
import math

import pytest

import repro.obs as obs
from repro.obs import (
    NULL_TELEMETRY,
    Counter,
    NullTelemetry,
    Telemetry,
    metrics_dict,
    to_chrome_trace,
)
from repro.telemetry import format_series_name
from repro.sim import Environment


# -- counters / gauges / histograms -----------------------------------------


def test_counter_standalone():
    c = Counter("x.count", gid=3)
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.series == "x.count{gid=3}"


def test_format_series_name_sorts_labels():
    assert format_series_name("m", ()) == "m"
    c = Counter("m", b=2, a=1)
    assert c.series == "m{a=1,b=2}"


def test_registry_reuses_instrument_per_label_set():
    tel = Telemetry()
    a = tel.counter("reqs", app="MC")
    b = tel.counter("reqs", app="MC")
    c = tel.counter("reqs", app="BS")
    assert a is b
    assert a is not c
    a.inc()
    assert tel.counter("reqs", app="MC").value == 1


def test_gauge_tracks_extremes():
    tel = Telemetry()
    g = tel.gauge("load")
    g.set(3.0)
    g.add(-5.0)
    g.set(7.0)
    assert g.value == 7.0
    assert g.max_value == 7.0
    assert g.min_value == -2.0


def test_histogram_stats_and_quantiles():
    tel = Telemetry()
    h = tel.histogram("lat", app="MC")
    for v in (0.001, 0.002, 0.004, 1.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(1.007)
    assert h.mean == pytest.approx(1.007 / 4)
    assert h.min == pytest.approx(0.001)
    assert h.max == pytest.approx(1.0)
    # Bucket upper bounds are powers of two of 1ns.
    for bound, _ in h.bucket_bounds():
        assert math.log2(bound / 1e-9) == pytest.approx(round(math.log2(bound / 1e-9)))
    assert h.quantile(0.0) == 0.0
    assert h.quantile(1.0) == pytest.approx(1.0)
    assert 0.001 <= h.quantile(0.5) <= 0.01
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_quantile_interpolates_within_bucket():
    """Regression (ISSUE 6 satellite): quantiles interpolate linearly
    inside the covering octave bucket instead of snapping to its upper
    bound, which overstated mid-bucket quantiles by up to 2x."""
    tel = Telemetry()
    h = tel.histogram("lat")
    for v in (1.2, 1.4, 3.0):
        h.observe(v)
    # 1.2 and 1.4 share the (2^30ns, 2^31ns] bucket; q=0.5 lands 1.5
    # samples deep into its 2 samples: lower + 0.75 * width, exactly.
    bound = 1e-9 * 2 ** 31
    assert h.quantile(0.5) == pytest.approx(bound / 2 + (bound / 2) * 0.75)
    assert h.quantile(0.5) < bound  # the old behaviour returned `bound`
    # Extremes clamp to the observed min/max, as before.
    assert h.quantile(0.0) == 0.0
    assert h.quantile(1.0) == pytest.approx(3.0)
    # Monotone in q.
    qs = [h.quantile(q / 20) for q in range(21)]
    assert qs == sorted(qs)


def test_histogram_zero_samples():
    tel = Telemetry()
    h = tel.histogram("lat")
    h.observe(0.0)
    assert h.count == 1
    assert h.zeros == 1
    assert h.buckets == {}
    assert h.quantile(0.9) == 0.0


# -- spans -------------------------------------------------------------------


def test_spans_use_sim_clock_and_parent_links():
    tel = Telemetry()
    env = Environment(telemetry=tel)
    assert tel.run_id == 1

    root = tel.start_span("request:MC", cat="request", track="app:MC")
    env.run(until=env.timeout(2.5))
    child = tel.start_span("kernel:MC", cat="kernel", track="GPU0/SM", parent=root)
    env.run(until=env.timeout(1.0))
    child.finish(env.now)
    root.finish(env.now)

    assert root.start == 0.0
    assert child.start == pytest.approx(2.5)
    assert child.end == pytest.approx(3.5)
    assert child.duration == pytest.approx(1.0)
    assert child.parent_id == root.span_id
    assert root.finished and child.finished
    assert tel.spans == [root, child]


def test_second_environment_bumps_run_id():
    tel = Telemetry()
    Environment(telemetry=tel)
    s1 = tel.start_span("a")
    Environment(telemetry=tel)
    s2 = tel.start_span("b")
    assert (s1.run_id, s2.run_id) == (1, 2)


def test_stopwatch_measures_and_records():
    tel = Telemetry()
    with tel.stopwatch("wall", label="x") as sw:
        pass
    assert sw.elapsed >= 0.0
    assert tel.histogram("wall", label="x").count == 1


# -- null registry -----------------------------------------------------------


def test_null_registry_is_default_and_inert():
    env = Environment()
    tel = env.telemetry
    assert tel is obs.current()
    assert not tel.enabled
    c = tel.counter("x")
    c.inc()
    assert c.value == 0
    tel.gauge("g").set(9.0)
    assert tel.gauge("g").value == 0.0
    tel.histogram("h").observe(1.0)
    assert tel.histogram("h").count == 0
    sp = tel.start_span("s")
    sp.finish(5.0)
    assert not sp.finished
    assert tel.instruments() == []
    assert len(tel.decisions) == 0
    # The null stopwatch still measures (harness reads .elapsed).
    with tel.stopwatch("w") as sw:
        pass
    assert sw.elapsed >= 0.0


def test_install_makes_registry_the_environment_default():
    tel = obs.install(Telemetry())
    try:
        env = Environment()
        assert env.telemetry is tel
        assert tel.run_id == 1
    finally:
        obs.reset()
    assert isinstance(obs.current(), NullTelemetry)
    assert obs.current() is NULL_TELEMETRY


# -- exports -----------------------------------------------------------------


def test_adopted_counters_appear_in_metrics_dict():
    tel = Telemetry()
    c = Counter("dispatch.wakes", gid=0)
    tel.register(c)
    c.inc(3)
    m = metrics_dict(tel)
    assert m["counters"]["dispatch.wakes{gid=0}"] == 3


def test_metrics_dict_shape():
    tel = Telemetry()
    Environment(telemetry=tel)
    tel.counter("c", app="MC").inc(2)
    tel.gauge("g").set(1.5)
    tel.histogram("h").observe(0.25)
    tel.start_span("s", cat="kernel", track="GPU0/SM").finish(1.0)
    m = json.loads(json.dumps(metrics_dict(tel)))  # must be JSON-serializable
    assert m["counters"]["c{app=MC}"] == 2
    assert m["gauges"]["g"]["value"] == 1.5
    h = m["histograms"]["h"]
    assert h["count"] == 1
    assert h["mean"] == pytest.approx(0.25)
    assert m["spans"] == 1
    assert m["runs"] == 1
    assert m["decisions"]["placements"] == 0


def test_chrome_trace_roundtrip_minimal():
    tel = Telemetry()
    Environment(telemetry=tel)
    tel.start_span("kernel:MC", cat="kernel", track="GPU0/SM").finish(0.002)
    open_span = tel.start_span("never.finished", track="GPU0/SM")
    assert not open_span.finished

    doc = json.loads(json.dumps(to_chrome_trace(tel)))
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == 1  # unfinished spans are not exported
    (x,) = xs
    assert x["name"] == "kernel:MC"
    assert x["ts"] == pytest.approx(0.0)
    assert x["dur"] == pytest.approx(2000.0)  # 0.002 sim-s -> microseconds
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["name"] for m in meta} >= {"process_name", "thread_name"}
    assert any(m["args"].get("name") == "GPU0/SM"
               for m in meta if m["name"] == "thread_name")
