"""Tests for the open-loop traffic runner (ISSUE 8, satellite 3).

The load-bearing churn properties:

* a tenant session departing with work still in the system is aborted —
  its RCB entry is *evicted* (no graceful finish) and, crucially, no SFT
  profile is emitted for it (aborted runs would poison the feedback
  means with partial runtimes);
* in-flight requests of everyone else complete, and the whole run is
  deterministic under a pinned seed (byte-stable counters and latency).
"""

import pytest

from repro.cluster import build_paper_supernode
from repro.core.policies import GMin
from repro.core.systems import CudaRuntimeSystem, StringsSystem
from repro.obs import Telemetry, attach_store
from repro.traffic import TrafficGenerator, parse_traffic_spec
from repro.harness.runner import run_open_loop_experiment

#: Churn-heavy scenario: mean lifetime (8 s) is comparable to a request
#: run, so a healthy fraction of sessions depart with work in flight.
CHURNY = "poisson:rate=8,tenants=40,churn=exp:8,duration=40,apps=GA*2+SN"


def make_gen(spec_txt=CHURNY, seed=42):
    return TrafficGenerator(parse_traffic_spec(spec_txt), seed=seed)


def run(gen, tel=None, factory=None, **kw):
    captured = {}

    def default_factory(env, nodes, net):
        sys_ = StringsSystem(env, nodes, net, balancing=GMin())
        captured["system"] = sys_
        return sys_

    res = run_open_loop_experiment(
        factory if factory is not None else default_factory,
        gen,
        build_paper_supernode,
        label="openloop-test",
        telemetry=tel if tel is not None else Telemetry(),
        **kw,
    )
    return res, captured.get("system")


def evictions(tel):
    return sum(
        c.value
        for c in tel.instruments()
        if getattr(c, "name", "") == "scheduler.evictions"
    )


# -- churn semantics ----------------------------------------------------------


def test_departing_sessions_evict_without_sft_pollution():
    tel = Telemetry()
    res, system = run(make_gen(), tel=tel)
    assert res.aborted > 0, "scenario must actually churn mid-flight"
    assert res.completed > 0
    assert res.offered == res.completed + res.aborted + res.failed
    # Every churn abort unwinds through scheduler.evict (RCB unregister,
    # no graceful finish); pre-bind aborts are the only ones without an
    # entry to evict.
    ev = evictions(tel)
    assert 0 < ev <= res.aborted
    # The no-pollution property: the SFT saw exactly one profile per
    # *completed* request — aborted runs fed nothing back.
    assert system.sft.updates == res.completed


def test_accounting_and_latency_aggregates():
    res, _ = run(make_gen(), keep_results=True)
    assert len(res.results) == res.completed
    assert res.sessions > 0
    assert res.churned_sessions == res.sessions  # churn=exp => all draw lifetimes
    assert res.sim_time_s >= res.duration_s * 0.5
    assert res.latency_sum_s == pytest.approx(
        sum(r.completion_s for r in res.results)
    )
    assert res.latency_max_s == pytest.approx(
        max(r.completion_s for r in res.results)
    )
    assert res.mean_latency_s <= res.latency_max_s
    p50, p99 = res.latency_quantile(0.5), res.latency_quantile(0.99)
    assert 0 < p50 <= p99 <= res.latency_max_s * 1.01
    assert sum(res.per_app.values()) == res.completed
    assert set(res.per_app) <= {"GA", "SN"}
    assert res.goodput_rps == pytest.approx(res.completed / res.duration_s)


def test_results_not_retained_by_default():
    res, _ = run(make_gen("poisson:rate=4,tenants=5,duration=10,apps=GA"))
    assert res.results is None


def test_seeded_run_is_deterministic():
    a, _ = run(make_gen(seed=7))
    b, _ = run(make_gen(seed=7))
    for attr in ("offered", "completed", "aborted", "failed", "sessions"):
        assert getattr(a, attr) == getattr(b, attr)
    assert round(a.sim_time_s, 9) == round(b.sim_time_s, 9)
    assert round(a.latency_sum_s, 9) == round(b.latency_sum_s, 9)
    assert round(a.goodput_rps, 9) == round(b.goodput_rps, 9)
    c, _ = run(make_gen(seed=8))
    assert (a.offered, round(a.latency_sum_s, 9)) != (c.offered, round(c.latency_sum_s, 9))


def test_shards_change_where_spans_go_not_the_answer(tmp_path):
    spec = "poisson:rate=4,tenants=20,churn=exp:10,duration=15,apps=GA*2+SN"
    plain, _ = run(make_gen(spec), tel=Telemetry())
    tel = Telemetry()
    store = attach_store(tel, str(tmp_path / "shards"))
    streamed, _ = run(make_gen(spec), tel=tel)
    store.close()
    assert streamed.completed == plain.completed
    for q in (0.5, 0.95, 0.99):
        assert streamed.latency_quantile(q) == plain.latency_quantile(q)


def test_without_churn_nothing_aborts():
    res, _ = run(make_gen("poisson:rate=6,tenants=20,duration=20,apps=GA+SN"))
    assert res.aborted == 0
    assert res.offered == res.completed
    assert res.churned_sessions == 0


def test_cuda_baseline_runs_under_churn():
    # DirectSession has no abort path (nothing schedules it); departures
    # only stop *unissued* requests, everything issued runs to completion.
    def factory(env, nodes, net):
        return CudaRuntimeSystem(env, nodes, net)

    res, _ = run(
        make_gen("poisson:rate=4,tenants=10,churn=exp:6,duration=20,apps=GA"),
        factory=factory,
    )
    assert res.completed > 0
    assert res.offered == res.completed + res.aborted
    assert res.failed == 0


def test_horizon_drives_console_progress():
    tel = Telemetry()
    gen = make_gen("poisson:rate=4,tenants=5,duration=25,apps=GA")
    from repro.obs import Sampler

    tel.sampler = Sampler(interval_s=1.0)
    run(gen, tel=tel)
    assert tel.run_horizon_s == 25.0
