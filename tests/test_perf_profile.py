"""Wall-clock self-profiling: zone timing, the layer-billed stack
sampler, byte-determinism of profiled runs, and the streaming record
encoder."""

import json
import os
import threading
import time

import pytest

import repro
import repro.core.policies.device
import repro.sim.core
from repro.apps import app_by_short
from repro.cluster import build_small_server
from repro.harness.runner import run_stream_experiment, system_factories
from repro.obs import DEFAULT_HZ, SamplingProfiler, Telemetry, metrics_dict
from repro.sim.core import Environment
from repro.sim.rng import RandomStream
from repro.telemetry.perf import ZoneProfiler
from repro.telemetry.profiler import OUTSIDE, layer_of
from repro.workloads import exponential_stream


# ---------------------------------------------------------------------------
# ZoneProfiler: nesting-aware self/total accounting
# ---------------------------------------------------------------------------


class TestZoneProfiler:
    def test_self_excludes_child_time(self):
        zp = ZoneProfiler()
        zp.push("outer")
        time.sleep(0.02)
        zp.push("inner")
        time.sleep(0.02)
        zp.pop()
        zp.pop()
        outer = zp.zones["outer"]
        inner = zp.zones["inner"]
        assert outer.calls == 1 and inner.calls == 1
        assert inner.self_s == pytest.approx(inner.total_s)
        # Outer's total covers both sleeps; its self time excludes inner.
        assert outer.total_s >= inner.total_s + 0.015
        assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)

    def test_total_self_reconstructs_outermost_wall(self):
        zp = ZoneProfiler()
        t0 = time.perf_counter()
        zp.push("a")
        time.sleep(0.01)
        zp.push("b")
        time.sleep(0.01)
        zp.pop()
        zp.push("b")
        time.sleep(0.01)
        zp.pop()
        zp.pop()
        wall = time.perf_counter() - t0
        # Sum of self times over all zones == wall time inside "a".
        total_self = sum(st.self_s for st in zp.zones.values())
        assert total_self == pytest.approx(zp.zones["a"].total_s)
        assert total_self <= wall
        assert zp.zones["b"].calls == 2


# ---------------------------------------------------------------------------
# SamplingProfiler: layer billing + collapsed stacks
# ---------------------------------------------------------------------------


def _busy_thread(seconds):
    """Start a thread that spins for ``seconds`` outside any repro code."""
    started = threading.Event()

    def spin():
        started.set()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sum(range(200))

    thread = threading.Thread(target=spin)
    thread.start()
    assert started.wait(timeout=5.0)
    return thread


def _sample_busy_thread(prof, seconds=0.1):
    """Sample a separate busy thread, so the profiler's own stop() (run
    on this thread) is never in a sample."""
    thread = _busy_thread(seconds)
    prof.start(target_thread_id=thread.ident)
    thread.join(timeout=5.0)
    prof.stop()
    assert not thread.is_alive()


class TestSamplingProfiler:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(hz=-1)

    def test_layer_is_the_repro_subpackage_of_the_code_file(self):
        assert layer_of(repro.sim.core.__file__) == "sim"
        assert layer_of(repro.core.policies.device.__file__) == "core"
        assert layer_of(repro.__file__) is None
        assert layer_of(os.__file__) is None

    def test_samples_billed_to_the_kernel_that_resumes_outside_code(self):
        # Process bodies defined here are not repro code: every sample
        # inside them is billed to the sim frame that resumed them.
        env = Environment()

        def body():
            while True:
                for _ in range(50):
                    sum(range(100))
                yield env.timeout(1.0)

        for _ in range(50):
            env.process(body())
        deadline = time.perf_counter() + 0.3
        with SamplingProfiler(hz=500) as prof:
            while time.perf_counter() < deadline:
                env.run(until=env.now + 1.0)
        counts = prof.layer_counts()
        assert prof.sample_count > 0
        assert counts.get("sim", 0) >= 0.9 * prof.sample_count, counts
        assert sum(prof.layer_shares().values()) == pytest.approx(1.0, abs=1e-3)

    def test_untagged_samples_fall_back_to_no_zone(self):
        prof = SamplingProfiler(hz=500)
        _sample_busy_thread(prof)
        assert prof.sample_count > 0
        assert set(prof.layer_counts()) == {OUTSIDE}

    def test_collapsed_format(self):
        prof = SamplingProfiler(hz=500)
        _sample_busy_thread(prof)
        text = prof.collapsed()
        assert text.endswith("\n")
        total = 0
        for line in text.splitlines():
            head, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            frames = head.split(";")
            assert frames[0] == OUTSIDE
            total += int(count)
        assert total == prof.sample_count

    def test_start_twice_raises_stop_is_idempotent(self):
        prof = SamplingProfiler(hz=DEFAULT_HZ)
        prof.start()
        with pytest.raises(RuntimeError):
            prof.start()
        prof.stop()
        prof.stop()  # no-op
        assert prof.elapsed_s > 0

    def test_samples_target_thread_not_profiler_thread(self):
        prof = SamplingProfiler(hz=500)
        prof.start(target_thread_id=threading.get_ident())
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(200))
        prof.stop()
        for (_zone, stack), _n in prof.samples.items():
            assert not any("repro-prof-sampler" in f for f in stack)
            assert stack  # root-first, non-empty


# ---------------------------------------------------------------------------
# Streaming record encoder: byte-identical to the reference json.dumps
# ---------------------------------------------------------------------------


def _reference_record(sp):
    return json.dumps(
        {
            "a": sp.args, "c": sp.cat, "e": sp.end, "id": sp.span_id,
            "k": "s", "n": sp.name, "p": sp.parent_id, "r": sp.run_id,
            "rl": sp.run_label, "s": sp.start, "tr": sp.track,
        },
        sort_keys=True, separators=(",", ":"), default=str,
    )


def _make_span(**kw):
    from repro.obs import Span

    sp = Span.__new__(Span)
    sp.name = kw.get("name", "req")
    sp.cat = kw.get("cat", "kernel")
    sp.track = kw.get("track", "gpu0")
    sp.start = kw.get("start", 1.25)
    sp.end = kw.get("end", 2.5)
    sp.span_id = kw.get("span_id", 7)
    sp.parent_id = kw.get("parent_id", None)
    sp.run_id = kw.get("run_id", 1)
    sp.run_label = kw.get("run_label", "run")
    sp.args = kw.get("args", None)
    return sp


class TestSpanRecordEncoder:
    def test_byte_identical_basic(self):
        from repro.obs.stream import _span_record

        sp = _make_span()
        assert _span_record(sp) == _reference_record(sp)

    def test_byte_identical_edge_cases(self):
        from repro.obs.stream import _span_record

        cases = [
            _make_span(end=None),  # unfinished span
            _make_span(parent_id=3),
            _make_span(args={"z": 1, "a": [1.5, "x"], "m": None}),
            _make_span(name='quo"te\\back\nnl', run_label="π-label"),
            _make_span(start=0.1 + 0.2, end=1e-12),  # float repr corners
            _make_span(start=3.0, end=1234567.0),
        ]
        for sp in cases:
            assert _span_record(sp) == _reference_record(sp), sp.name

    def test_byte_identical_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        from repro.obs.stream import _span_record

        sp = _make_span(start=np.float64(0.406), end=np.float64(12.75))
        rec = _span_record(sp)
        assert rec == _reference_record(sp)
        assert "np.float64" not in rec
        json.loads(rec)  # stays valid JSON


# ---------------------------------------------------------------------------
# End-to-end: byte-determinism of profiled runs
# ---------------------------------------------------------------------------


def _small_run(telemetry, profile_hz=None):
    """One seeded two-stream experiment; optionally self-profiled."""
    profiler = None
    if profile_hz is not None:
        profiler = telemetry.profiler = SamplingProfiler(hz=profile_hz)
        profiler.start()
    try:
        run = run_stream_experiment(
            system_factories()["GMin-Strings"],
            [
                exponential_stream(app_by_short("BS"), RandomStream(3, "perf"), 4, 1.2),
                exponential_stream(app_by_short("GA"), RandomStream(4, "perf"), 3, 1.2),
            ],
            build_small_server,
            label="perf-det",
            telemetry=telemetry,
        )
    finally:
        if profiler is not None:
            profiler.stop()
    return run


def _sim_fingerprint(telemetry, run):
    """Everything simulated: per-request results, spans, decisions."""
    # Span ids (like request ids) come from a process-global counter, so
    # fingerprint the sim-timed fields only.
    spans = sorted(
        (sp.name, sp.cat, sp.track, sp.start, sp.end) for sp in telemetry.spans
    )
    decisions = [
        (p.app_name, p.policy, p.chosen_gid, sorted(p.scores.items()))
        for p in telemetry.decisions.placements
    ]
    # request_id is a process-global counter (differs between back-to-back
    # runs in one process); everything sim-timed must match exactly.
    results = [(r.app, r.arrival_s, r.start_s, r.finish_s) for r in run.results]
    return {"spans": spans, "decisions": decisions, "results": results}


class TestProfiledRunDeterminism:
    def test_profile_on_vs_off_sim_results_identical(self):
        tel_off = Telemetry()
        run_off = _small_run(tel_off, profile_hz=None)
        tel_on = Telemetry()
        run_on = _small_run(tel_on, profile_hz=400)

        assert _sim_fingerprint(tel_on, run_on) == _sim_fingerprint(tel_off, run_off)
        # And profiling actually happened on the profiled side.
        assert tel_on.profiler.sample_count >= 1

    def test_metrics_dict_carries_perf_section_only_when_profiled(self):
        tel = Telemetry()
        _small_run(tel, profile_hz=400)
        shares = metrics_dict(tel)["cpu_layers"]
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-3)

        tel_plain = Telemetry()
        _small_run(tel_plain, profile_hz=None)
        assert metrics_dict(tel_plain)["cpu_layers"] is None


class TestKernelHealthGauges:
    def test_events_processed_and_queue_depth_accumulate(self):
        from repro.sim.core import Environment

        env = Environment()
        assert env.events_processed == 0
        done = []
        def proc():
            yield env.timeout(1.0)
            done.append(env.now)
            yield env.timeout(1.0)
        env.process(proc())
        assert env.queue_depth >= 1
        env.run()
        assert done == [1.0]
        assert env.events_processed >= 2
        assert env.queue_depth == 0

    def test_sampler_records_sim_speed_series(self):
        from repro.obs import Sampler

        tel = Telemetry()
        tel.sampler = Sampler(interval_s=1.0)
        _small_run(tel, profile_hz=None)
        speedup = [
            s for s in tel.series.values() if s.name == "sim.speedup"
        ]
        events_ps = [
            s for s in tel.series.values() if s.name == "sim.events_ps"
        ]
        qdepth = [
            s for s in tel.series.values() if s.name == "sim.queue_depth"
        ]
        assert speedup and events_ps and qdepth
        assert all(len(s) > 0 for s in speedup + events_ps + qdepth)
        # Wall-clock-valued: positive sim-speed, non-negative event rate.
        for s in speedup:
            assert all(v > 0 for _t, v in s.points())
        gauge = tel.gauge("sim.events_processed", run="perf-det")
        assert gauge.value > 0
