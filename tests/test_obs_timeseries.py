"""Ring-buffered series and the sim-time sampler (ISSUE 2)."""

import pytest

import repro.obs as obs
from repro.obs import NULL_TELEMETRY, Sampler, Series, Telemetry
from repro.telemetry import NULL_SERIES


class TestSeriesRingBuffer:
    def test_appends_in_order_below_capacity(self):
        s = Series("x", capacity=8)
        for i in range(5):
            s.append(float(i), float(i * 10))
        assert len(s) == 5
        assert s.dropped == 0
        assert s.points() == [(float(i), float(i * 10)) for i in range(5)]
        assert s.last() == (4.0, 40.0)

    def test_wraps_around_keeping_the_tail(self):
        s = Series("x", capacity=4)
        for i in range(10):
            s.append(float(i), float(i))
        assert len(s) == 4
        assert s.total_appended == 10
        assert s.dropped == 6
        # Oldest samples were overwritten; the retained window is the tail,
        # still in chronological order.
        assert s.times() == [6.0, 7.0, 8.0, 9.0]
        assert s.last() == (9.0, 9.0)

    def test_wrap_exactly_at_capacity_boundary(self):
        s = Series("x", capacity=3)
        for i in range(3):
            s.append(float(i), float(i))
        assert s.dropped == 0
        assert s.times() == [0.0, 1.0, 2.0]
        s.append(3.0, 3.0)
        assert s.times() == [1.0, 2.0, 3.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Series("x", capacity=0)

    def test_series_name_includes_labels(self):
        s = Series("gpu.util", gid=0, run="fig9")
        assert s.series == "gpu.util{gid=0,run=fig9}"


class TestDownsample:
    def test_short_series_returned_unchanged(self):
        s = Series("x", capacity=16)
        for i in range(5):
            s.append(float(i), float(i))
        assert s.downsample(10) == s.points()

    def test_bucket_means_preserve_average(self):
        s = Series("x", capacity=100)
        for i in range(100):
            s.append(float(i), float(i))
        pts = s.downsample(10)
        assert len(pts) == 10
        # Equal-count buckets of a linear ramp keep the global mean.
        assert sum(v for _, v in pts) / 10 == pytest.approx(49.5)
        # Times stay monotonically increasing.
        times = [t for t, _ in pts]
        assert times == sorted(times)

    def test_single_point_budget(self):
        s = Series("x", capacity=10)
        for i in range(10):
            s.append(float(i), 2.0)
        pts = s.downsample(1)
        assert len(pts) == 1
        assert pts[0][1] == pytest.approx(2.0)

    def test_rejects_non_positive_budget(self):
        s = Series("x")
        with pytest.raises(ValueError, match="max_points"):
            s.downsample(0)


class TestTelemetryFactory:
    def test_timeseries_get_or_create_by_name_and_labels(self):
        tel = Telemetry()
        a = tel.timeseries("gpu.util", gid=0)
        b = tel.timeseries("gpu.util", gid=0)
        c = tel.timeseries("gpu.util", gid=1)
        assert a is b
        assert a is not c
        assert len(tel.series) == 2

    def test_null_registry_returns_noop_singleton(self):
        s = NULL_TELEMETRY.timeseries("gpu.util", gid=0)
        assert s is NULL_SERIES
        s.append(1.0, 2.0)
        assert len(s) == 0
        assert len(NULL_TELEMETRY.series) == 0


class TestSamplerValidation:
    def test_rejects_zero_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Sampler(interval_s=0.0)

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Sampler(interval_s=-1.0)


class TestSamplerIntegration:
    def _run(self, tel, interval=0.5, with_sampler=True):
        from repro.apps.catalog import ALL_APPS
        from repro.cluster import build_small_server
        from repro.harness.runner import run_stream_experiment, system_factories
        from repro.sim.rng import RandomStream
        from repro.workloads.streams import exponential_stream

        apps = {a.short: a for a in ALL_APPS}
        streams = [
            exponential_stream(
                apps["BS"], RandomStream(7, "obs-ts", "BS"), 3, tenant_id="t0"
            ),
            exponential_stream(
                apps["SN"], RandomStream(7, "obs-ts", "SN"), 3, tenant_id="t1"
            ),
        ]
        if with_sampler:
            tel.sampler = Sampler(interval_s=interval, capacity=256)
        return run_stream_experiment(
            system_factories()["GMin-Strings"], streams, build_small_server,
            label="sampler-test", telemetry=tel,
        )

    def test_sampler_records_per_gpu_series(self):
        tel = Telemetry()
        self._run(tel)
        names = {s.name for s in tel.series.values()}
        for expected in ("gpu.util", "gpu.active", "gpu.copy_queue",
                         "gpu.rcb_live", "gpu.signal_rate",
                         "dst.load", "dst.est_load_s", "dst.weight",
                         "sft.rows", "sft.updates"):
            assert expected in names, f"missing series {expected}"
        assert tel.sampler.ticks > 0
        util = [s for s in tel.series.values() if s.name == "gpu.util"]
        assert len(util) >= 2  # one per GPU
        for s in util:
            assert all(0.0 <= v <= 1.0 for v in s.values())
        assert tel.sft_state.get("sampler-test") is not None

    def test_sampler_not_started_on_null_registry(self):
        result = self._run(obs.current(), with_sampler=False)  # NULL_TELEMETRY
        assert result.results  # run completed
        assert len(NULL_TELEMETRY.series) == 0

    def test_sampling_only_mode_skips_the_per_op_layer(self):
        from repro.obs import SamplingTelemetry

        tel = SamplingTelemetry()
        self._run(tel)
        assert tel.series  # the sampler ran...
        assert tel.sampler.ticks > 0
        assert not tel.spans  # ...but per-op instrumentation stayed off
        assert len(tel.attribution) == 0
        assert len(tel.decisions) == 0
