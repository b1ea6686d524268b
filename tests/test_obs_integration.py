"""End-to-end observability: spans, decision log and exporters against a
real Strings experiment (ISSUE 1 acceptance checks)."""

import json

import pytest

import repro.obs as obs
from repro.obs import Telemetry, metrics_dict, summary_table, to_chrome_trace
from repro.obs.spans import children_of, phase_breakdown, request_spans
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.apps import app_by_short
from repro.cluster import build_small_server
from repro.core.arbiter import PolicyArbiter
from repro.core.feedback import AppProfile
from repro.core.policies import GMin, MBF
from repro.core.systems import StringsSystem
from repro.harness.runner import run_stream_experiment, system_factories
from repro.workloads import exponential_stream


@pytest.fixture
def gwtmin_run():
    """A small GWtMin-Strings stream experiment under a live registry."""
    tel = Telemetry()
    facts = system_factories()
    streams = [
        exponential_stream(app_by_short("BS"), RandomStream(3, "obs"), 4, 1.2),
        exponential_stream(app_by_short("GA"), RandomStream(4, "obs"), 3, 1.2),
    ]
    run = run_stream_experiment(
        facts["GWtMin-Strings"], streams, build_small_server,
        label="GWtMin-Strings", telemetry=tel,
    )
    return tel, run


def test_placement_logged_per_admitted_request(gwtmin_run):
    tel, run = gwtmin_run
    assert len(run.results) == 7
    placements = tel.decisions.placements
    # One Target-GPU-Selector decision per admitted request.
    assert len(placements) == len(run.results)
    gids = {0, 1}  # build_small_server: one node, two GPUs
    for p in placements:
        assert p.policy == "GWtMin"
        assert p.chosen_gid in gids
        assert p.app_name in ("BS", "GA")
        assert set(p.scores) == gids
        # GWtMin picks the best weighted-load score it saw.
        assert p.scores[p.chosen_gid] == pytest.approx(min(p.scores.values()))
    assert set(tel.decisions.policy_mix()) == {"GWtMin"}
    assert len(tel.decisions.placements_for("BS")) == 4
    mix = tel.decisions.by_gid()
    assert sum(len(v) for v in mix.values()) == 7


def test_request_spans_cover_every_request(gwtmin_run):
    tel, run = gwtmin_run
    roots = request_spans(tel)
    assert len(roots) == len(run.results)
    assert all(s.finished for s in roots)
    # Root durations equal the drivers' reported completion times.
    assert sorted(round(s.duration, 9) for s in roots) == sorted(
        round(r.completion_s, 9) for r in run.results
    )
    # Each request has at least bind + kernel-launch + memcpy children.
    for root in roots:
        cats = {c.cat for c in children_of(tel, root)}
        assert "bind" in cats
        assert "kernel" in cats  # session-side kernel-launch op spans
        assert "copy" in cats
    breakdown = phase_breakdown(tel)
    assert set(breakdown) == {"BS", "GA"}
    assert all(b.get("kernel", 0) > 0 for b in breakdown.values())


def test_engine_spans_land_on_gpu_tracks(gwtmin_run):
    tel, _ = gwtmin_run
    tracks = {s.track for s in tel.spans}
    assert {"GPU0/SM", "GPU1/SM"} & tracks  # at least one SM saw kernels
    assert any(t.endswith(("/H2D", "/D2H", "/DMA")) for t in tracks)


def test_chrome_trace_roundtrips_through_json(gwtmin_run):
    tel, run = gwtmin_run
    doc = json.loads(json.dumps(to_chrome_trace(tel)))
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"

    xs = [e for e in events if e["ph"] == "X"]
    assert xs
    for e in xs:
        assert e["ts"] >= 0
        assert e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)

    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == len(run.results)  # one per placement
    assert all(e["args"]["policy"] == "GWtMin" for e in instants)

    meta = [e for e in events if e["ph"] == "M"]
    procs = [m for m in meta if m["name"] == "process_name"]
    assert len(procs) == 1  # a single labelled run
    assert "GWtMin-Strings" in procs[0]["args"]["name"]
    threads = {m["args"]["name"] for m in meta if m["name"] == "thread_name"}
    assert {"app:BS", "app:GA", "scheduler"} <= threads


def test_metrics_dict_reflects_run(gwtmin_run):
    tel, run = gwtmin_run
    m = json.loads(json.dumps(metrics_dict(tel)))
    assert m["counters"]["mapper.bindings{policy=GWtMin}"] == len(run.results)
    assert m["decisions"]["placements"] == len(run.results)
    assert m["decisions"]["policy_mix"] == {"GWtMin": len(run.results)}
    comp = m["histograms"]["request.completion_s{app=BS}"]
    assert comp["count"] == 4
    assert comp["mean"] > 0
    assert m["histograms"]["harness.wall_s{label=GWtMin-Strings}"]["count"] == 1
    assert m["gauges"]["harness.sim_time_s{label=GWtMin-Strings}"]["value"] == (
        pytest.approx(run.sim_time_s)
    )
    # Adopted dispatch-gate counters surface per GID.
    assert any(k.startswith("dispatch.wakes{gid=") for k in m["counters"])


def test_summary_table_renders(gwtmin_run):
    tel, run = gwtmin_run
    text = summary_table(tel)
    assert f"requests traced: {len(run.results)}" in text
    assert "GWtMin" in text
    assert "placements per GID" in text


def test_arbiter_switch_recorded():
    tel = Telemetry()
    env = Environment(telemetry=tel)
    nodes, net = build_small_server(env)
    system = StringsSystem(env, nodes, net, balancing=GMin())
    arb = PolicyArbiter(
        system.mapper, GMin(), MBF(system.sft), min_profiles=3, min_distinct_apps=2
    )
    for name in ("MC", "MC", "DC", "DC"):
        arb.deliver_feedback(
            AppProfile(app_name=name, runtime_s=5.0, gpu_time_s=2.0,
                       transfer_time_s=0.5, bytes_accessed_gb=10.0)
        )
    assert arb.switched
    assert len(tel.decisions.switches) == 1
    sw = tel.decisions.switches[0]
    assert sw.from_policy == "GMin"
    assert sw.to_policy == "MBF"
    assert sw.profiles_seen == 3
    assert sw.distinct_apps == 2


def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    from repro.harness.__main__ import main

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert main(["fig2", "--scale", "quick", "--out-dir", str(tmp_path),
                 "--emit", "trace,metrics"]) == 0
    out = capsys.readouterr().out
    assert "observability summary" in out
    # The flags reset the default registry on exit.
    assert not obs.current().enabled

    doc = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    m = json.loads(metrics.read_text())
    assert m["spans"] > 0
    assert m["runs"] >= 1
