"""Streaming telemetry (ISSUE 6): sketches, shard store, live console."""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import tracemalloc

import pytest

from repro.obs import (
    Histogram,
    LiveConsole,
    Sampler,
    SpanShardStore,
    Telemetry,
    iter_disk_batches,
    merged_quantile,
    metrics_dict,
    profile_dict,
    profile_requests,
    profile_shard_dir,
    summary_table,
    to_prometheus,
)
from repro.obs.stream import shard_files


def _reset_ids():
    import repro.apps.models as models
    import repro.telemetry.instruments as inst

    models._req_ids = itertools.count(1)
    inst._span_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# Quantile sketch
# ---------------------------------------------------------------------------


class TestQuantileSketch:
    def test_relative_error_guarantee(self):
        rng = random.Random(7)
        samples = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        sk = Histogram("lat")
        for v in samples:
            sk.observe(v)
        ordered = sorted(samples)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 0.999):
            # Same rank convention as the sketch: k-th smallest with
            # k = ceil(q * n) (clamped to >= 1).
            k = max(1, math.ceil(q * len(ordered)))
            true = ordered[k - 1]
            assert abs(sk.quantile(q) - true) <= 0.01 * true + 1e-12

    def test_deterministic_serialization(self):
        rng = random.Random(11)
        samples = [rng.expovariate(1.0) for _ in range(500)]
        a, b = Histogram("lat"), Histogram("lat")
        for v in samples:
            a.observe(v)
        for v in samples:
            b.observe(v)
        # Same seeded sample sequence => identical sketches.
        assert (a.buckets, a.count, a.zeros, a.min, a.max, a.sum) == (
            b.buckets, b.count, b.zeros, b.min, b.max, b.sum
        )
        # Bucket structure (everything but the float sum) is even
        # order-independent: counts commute, min/max are symmetric.
        c = Histogram("lat")
        for v in reversed(samples):
            c.observe(v)
        assert c.buckets == a.buckets
        assert (c.count, c.zeros, c.min, c.max) == (a.count, a.zeros, a.min, a.max)
        assert c.sum == pytest.approx(a.sum)

    def test_merge_matches_union(self):
        rng = random.Random(3)
        xs = [rng.lognormvariate(0, 1) for _ in range(1000)]
        ys = [rng.lognormvariate(1, 1) for _ in range(700)]
        a, b, u = Histogram("lat"), Histogram("lat"), Histogram("lat")
        for v in xs:
            a.observe(v)
            u.observe(v)
        for v in ys:
            b.observe(v)
            u.observe(v)
        a.merge(b)
        # Bucket counts add exactly; the float sum matches up to
        # accumulation order.
        assert a.buckets == u.buckets
        assert (a.count, a.zeros, a.min, a.max) == (u.count, u.zeros, u.min, u.max)
        assert a.sum == pytest.approx(u.sum)
        ordered = sorted(xs + ys)
        for q in (0.5, 0.95, 0.99):
            true = ordered[max(1, math.ceil(q * len(ordered))) - 1]
            assert abs(a.quantile(q) - true) <= 0.01 * true

    def test_empty_and_validation(self):
        sk = Histogram("lat")
        assert sk.quantile(0.5) == 0.0
        assert sk.mean == 0.0
        assert sk.buckets == {}
        with pytest.raises(ValueError):
            sk.quantile(-0.1)


class TestSketchHistogram:
    def test_registry_swap_in(self):
        tel = Telemetry()
        h = tel.histogram("lat", app="MC")
        assert isinstance(h, Histogram)
        for v in (0.5, 1.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.min == 0.5 and h.max == 2.0
        # bucket_bounds feeds the exporters.
        assert sum(n for _b, n in h.bucket_bounds()) == 3
        assert abs(h.quantile(1.0) - 2.0) <= 0.01 * 2.0

    def test_merge_from_and_merged_quantile(self):
        a = Histogram("lat", shard=0)
        b = Histogram("lat", shard=1)
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (3.0, 4.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert abs(a.quantile(1.0) - 4.0) <= 0.04
        assert abs(merged_quantile([a, b], 1.0) - 4.0) <= 0.04


# ---------------------------------------------------------------------------
# Span shard store
# ---------------------------------------------------------------------------


def _synthetic_run(tel, n_requests=40, children=2):
    """Emit n request groups + loose engine spans through the registry."""
    tel.attach(type("E", (), {"now": 0.0})())
    for i in range(n_requests):
        t = float(i)
        root = tel.start_span(
            "req", cat="request", track="app:A",
            args={"rid": i, "app": "A", "tenant": "t0"}, start=t,
        )
        for c in range(children):
            ch = tel.start_span(
                "cpu" if c % 2 else "kern",
                cat="cpu" if c % 2 else "kernel",
                parent=root, start=t + 0.1 * c,
            )
            ch.finish(t + 0.1 * c + 0.05)
        loose = tel.start_span("engine", cat="kernel", track="GPU0/SM", start=t)
        loose.finish(t + 0.2)
        root.args["gid"] = 0
        root.finish(t + 1.0)


class TestSpanShardStore:
    def _wire(self, tmp_path, **kw):
        tel = Telemetry()
        store = SpanShardStore(str(tmp_path / "shards"), **kw)
        tel.spans = store
        tel._append_span = store.append
        tel.stream = store
        return tel, store

    def test_round_trip_profile_matches_in_memory(self, tmp_path):
        import repro.telemetry.instruments as inst

        inst._span_ids = itertools.count(1)
        t1 = Telemetry()
        _synthetic_run(t1)
        expected = profile_dict(profile_requests(t1))

        inst._span_ids = itertools.count(1)
        t2, store = self._wire(tmp_path, buffer_limit=9, shard_max_records=50)
        _synthetic_run(t2)
        store.close()
        assert profile_dict(profile_requests(t2)) == expected
        assert profile_dict(profile_shard_dir(store.directory)) is not None
        offline = profile_dict(profile_shard_dir(store.directory))
        assert offline["per_phase"] == expected["per_phase"]
        assert offline["requests"] == expected["requests"]

    def test_groups_flush_atomically_with_monotone_watermarks(self, tmp_path):
        tel, store = self._wire(tmp_path, buffer_limit=5)
        _synthetic_run(tel, n_requests=20)
        store.close()
        last_w = -math.inf
        for spans, watermark, _t in iter_disk_batches(store.directory):
            assert watermark >= last_w, "watermark regressed"
            last_w = watermark
            ids = {s.span_id for s in spans}
            for s in spans:
                # Parent precedes child within the batch (id order) and a
                # request's children never flush without their root.
                if s.parent_id is not None:
                    assert s.parent_id in ids
                    assert s.parent_id < s.span_id

    def test_len_iter_and_shard_rotation(self, tmp_path):
        tel, store = self._wire(tmp_path, buffer_limit=7, shard_max_records=30)
        _synthetic_run(tel, n_requests=30)
        store.close()
        # 30 requests x (root + 2 children + 1 loose engine span)
        assert len(store) == 120
        union = list(store)
        assert len(union) == 120
        assert len({s.span_id for s in union}) == 120
        assert store.stats()["shards"] > 1
        assert store.stats()["spans_flushed"] == 120

    def test_flush_leaves_no_finished_group_in_memory(self, tmp_path):
        # Memory is the append buffer plus the in-flight groups: once
        # flushed, a finished request lives only in the shards, however
        # slow it was.
        tel, store = self._wire(tmp_path, buffer_limit=4)
        _synthetic_run(tel, n_requests=10)
        tel.stream.flush(100.0)
        *_on_disk, (in_memory, watermark, _t) = store.iter_batches()
        assert in_memory == [] and watermark == math.inf
        assert store.stats()["in_flight_groups"] == 0
        # 10 requests x (root + 2 children + 1 loose engine span)
        assert store.stats()["spans_flushed"] == len(store) == 40
        store.close()

    def test_open_spans_stay_in_memory(self, tmp_path):
        tel, store = self._wire(tmp_path, buffer_limit=2)
        tel.attach(type("E", (), {"now": 0.0})())
        root = tel.start_span("req", cat="request", args={"rid": 1}, start=0.0)
        ch = tel.start_span("cpu", cat="cpu", parent=root, start=0.0)
        store.flush(5.0)
        assert store.stats()["spans_flushed"] == 0
        assert store.stats()["in_flight_groups"] == 1
        store.close()
        # Still incomplete: shards stay empty, the union still has both.
        assert store.stats()["spans_flushed"] == 0
        assert {s.span_id for s in store} == {root.span_id, ch.span_id}

    def test_bounded_memory_on_long_run(self, tmp_path):
        tel, store = self._wire(tmp_path, buffer_limit=500)
        tracemalloc.start()
        _synthetic_run(tel, n_requests=5000, children=2)
        tel.stream.flush()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        store.close()
        # 20k spans streamed; the working set must stay far below full
        # retention (~Span  >= 200 bytes -> 4+ MB in-memory).  Generous
        # ceiling so CI interpreter variance can't flake it.
        assert peak < 3 * 1024 * 1024, f"peak telemetry memory {peak} bytes"
        assert store.stats()["spans_flushed"] > 19_000

    def _six_request_shard(self, tmp_path):
        """One shard of 6 requests (4 s kernel, 3 s copy, 2 s overhead
        each), a batch trailer after the third; (directory, path, lines)."""
        tel, store = self._wire(tmp_path)
        tel.attach(type("E", (), {"now": 0.0})())
        for i in range(6):
            t = 10.0 * i
            root = tel.start_span(
                "req", cat="request", track="app:A",
                args={"rid": i, "app": "A", "tenant": "t0", "gid": 0}, start=t,
            )
            tel.start_span("kern", cat="kernel", parent=root, start=t + 1).finish(t + 5)
            tel.start_span("copy", cat="copy", parent=root, start=t + 5).finish(t + 8)
            root.finish(t + 9)
            if i == 2:
                store.flush(t + 9)
        store.close()
        (path,) = shard_files(store.directory)
        with open(path) as fh:
            lines = fh.readlines()
        return store.directory, path, lines

    def test_offline_analysis_stops_at_the_last_complete_batch(self, tmp_path):
        # A crashed run leaves records after its last batch trailer.
        # Their requests may have lost children in the crash, so they
        # must not be profiled (with all their time blamed on overhead).
        directory, path, lines = self._six_request_shard(tmp_path)
        assert json.loads(lines[9])["k"] == "batch"
        # Keep the first batch plus root 3, its two children and root 4.
        with open(path, "w") as fh:
            fh.writelines(lines[:14])
        profile = profile_shard_dir(directory)
        assert len(profile.requests) == 3
        assert profile.by_phase == {"kernel": 12.0, "copy": 9.0}
        assert profile.unattributed_s == 6.0

    def test_offline_analysis_drops_a_torn_final_record(self, tmp_path):
        # A kill mid-write leaves a partial last line (no newline); the
        # offline profile still covers the run up to its last batch.
        directory, path, lines = self._six_request_shard(tmp_path)
        torn = lines[11][: len(lines[11]) // 2]
        # Keep the first batch and its trailer, root 3 and half a record.
        with open(path, "w") as fh:
            fh.writelines(lines[:11] + [torn])
        profile = profile_shard_dir(directory)
        assert len(profile.requests) == 3
        assert profile.by_phase == {"kernel": 12.0, "copy": 9.0}
        assert profile.unattributed_s == 6.0
        # A torn line anywhere but the end is corruption, not a crash.
        with open(path, "w") as fh:
            fh.writelines(lines[:11] + [torn + "\n"] + lines[12:14])
        with pytest.raises(json.JSONDecodeError):
            profile_shard_dir(directory)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SpanShardStore(str(tmp_path / "x"), buffer_limit=0)
        with pytest.raises(ValueError):
            SpanShardStore(str(tmp_path / "x"), shard_max_records=0)


class TestChaosExactness:
    """The acceptance bar: shard-flush round-trip reproduces the
    in-memory profiler's blame vectors on the perf-gate chaos scenario
    exactly — float-for-float, including aggregation order."""

    def _chaos_profile(self, streaming, tmp_path):
        import repro.faults as faults
        import repro.obs as obs
        from repro.harness import registry
        from repro.harness.runner import SCALE_QUICK

        _reset_ids()
        tel = Telemetry()
        tel.sampler = Sampler(interval_s=1.0)
        store = None
        if streaming:
            store = SpanShardStore(str(tmp_path / "chaos-shards"), buffer_limit=137)
            tel.spans = store
            tel._append_span = store.append
            tel.stream = store
        obs.install(tel)
        try:
            registry.execute("chaos", registry.ExperimentContext(scale=SCALE_QUICK))
        finally:
            obs.reset()
            faults.reset_plan()
        if store is not None:
            store.close()
        return profile_dict(profile_requests(tel)), tel

    def test_streamed_blame_vector_is_bit_identical(self, tmp_path, capsys):
        baseline, tel_mem = self._chaos_profile(False, tmp_path)
        streamed, tel_str = self._chaos_profile(True, tmp_path)
        capsys.readouterr()
        assert streamed == baseline
        # Sketch quantiles stay within the configured relative error of
        # the exact span-derived quantiles (same rank convention).
        # Failed attempts close their root spans flagged; the histogram
        # observes completed requests only.
        durations = sorted(
            s.duration for s in tel_mem.spans
            if s.cat == "request" and s.finished
            and not (s.args or {}).get("failed_attempt")
        )
        hists = [
            h for h in tel_str.instruments()
            if isinstance(h, Histogram) and h.name == "request.completion_s"
        ]
        assert hists
        alpha = Histogram.RELATIVE_ACCURACY
        for q in (0.5, 0.99):
            true = durations[max(1, math.ceil(q * len(durations))) - 1]
            est = merged_quantile(hists, q)
            assert abs(est - true) <= alpha * true


# ---------------------------------------------------------------------------
# Live console + heartbeat
# ---------------------------------------------------------------------------


class TestLiveConsole:
    def _tel_with_data(self):
        tel = Telemetry()
        h = tel.histogram("request.completion_s", app="A")
        for v in (0.5, 1.0, 2.0):
            h.observe(v)
        tel.timeseries("gpu.util", run="r", gid=0).append(1.0, 0.75)
        tel.run_label = "r"
        tel.run_id = 1
        tel.run_horizon_s = 10.0
        return tel

    def test_tick_renders_and_heartbeats(self, tmp_path):
        hb = tmp_path / "hb.jsonl"
        out = io.StringIO()
        console = LiveConsole(interval_s=0.001, heartbeat_path=str(hb), out=out)
        tel = self._tel_with_data()
        console.tick(5.0, tel)
        console.close(tel)
        text = out.getvalue()
        assert "[r]" in text and "p99" in text and text.endswith("\n")
        records = [json.loads(line) for line in hb.read_text().splitlines()]
        assert records
        first = records[0]
        assert first["completed"] == 3
        assert first["gpu_util"] == {"0": 0.75}
        assert first["progress"] == pytest.approx(0.5)
        assert first["eta_s"] is not None
        assert abs(first["p99_s"] - 2.0) <= 0.01 * 2.0

    def test_wall_clock_throttling(self):
        out = io.StringIO()
        console = LiveConsole(interval_s=3600.0, out=out)
        tel = self._tel_with_data()
        for t in range(50):
            console.tick(float(t), tel)
        assert console.ticks == 50
        assert console.emits == 1  # first tick emits, the rest throttle
        console.close(tel)
        assert console.emits == 2  # close forces a final redraw
        # The forced final tick reports the *latest* sim time seen.
        assert json.loads(json.dumps(console.snapshot(49.0, tel, 0.0)))
        assert console._now == 49.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveConsole(interval_s=0.0)

    def test_drain_phase_past_horizon(self):
        # A duration-bounded open-loop run keeps simulating after the
        # arrival horizon while in-flight requests drain; the console
        # must flag that instead of advertising ETA 0 at a pegged 100%.
        console = LiveConsole(interval_s=0.001, out=io.StringIO())
        tel = self._tel_with_data()  # run_horizon_s = 10.0
        running = console.snapshot(5.0, tel, wall=4.0)
        assert running["phase"] == "run"
        assert running["eta_s"] == pytest.approx(4.0, abs=0.1)
        draining = console.snapshot(12.0, tel, wall=9.0)
        assert draining["phase"] == "drain"
        assert draining["progress"] == 1.0
        assert draining["eta_s"] is None
        line = console.render_line(draining)
        assert "drain" in line and "ETA" not in line

    def test_no_horizon_means_no_progress_or_phase(self):
        console = LiveConsole(interval_s=0.001, out=io.StringIO())
        tel = self._tel_with_data()
        tel.run_horizon_s = 0.0  # request-count-unknown AND no horizon
        snap = console.snapshot(5.0, tel, wall=1.0)
        assert snap["progress"] is None
        assert snap["phase"] is None
        assert snap["eta_s"] is None
        assert "ETA" not in console.render_line(snap)


# ---------------------------------------------------------------------------
# Dropped-sample surfacing (satellite)
# ---------------------------------------------------------------------------


class TestDroppedSeriesSurfacing:
    def _tel_with_wrap(self):
        tel = Telemetry()
        s = tel.timeseries("gpu.util", capacity=4, run="r", gid=0)
        for i in range(10):
            s.append(float(i), 0.5)
        return tel

    def test_metrics_dict_reports_dropped(self):
        doc = metrics_dict(self._tel_with_wrap())
        series = doc["series"]
        (key,) = series
        assert series[key] == {"points": 4, "dropped": 6}
        assert doc["series_dropped_samples"] == 6

    def test_prometheus_exposes_dropped_counter(self):
        text = to_prometheus(self._tel_with_wrap())
        assert "# TYPE repro_series_dropped_samples_total counter" in text
        assert 'series="repro_gpu_util"' in text and " 6" in text

    def test_summary_table_warns(self):
        table = summary_table(self._tel_with_wrap())
        assert "WARNING: 6 samples dropped" in table
        assert "gpu.util" in table

    def test_no_warning_without_wrap(self):
        tel = Telemetry()
        tel.timeseries("gpu.util", capacity=16, run="r").append(0.0, 1.0)
        assert "WARNING" not in summary_table(tel)
        doc = metrics_dict(tel)
        assert doc["series_dropped_samples"] == 0
