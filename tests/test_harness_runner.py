"""Unit tests for the harness machinery (runner, format, pairsweep helpers)."""

import os

import pytest

import repro.faults as faults
import repro.obs as obs
from repro.sim import Environment
from repro.cluster import build_single_gpu_server, build_small_server
from repro.core.policies import GMin, GRR
from repro.core.systems import StringsSystem
from repro.sim.rng import RandomStream
from repro.apps import app_by_short
from repro.faults import parse_fault_spec
from repro.workloads import Request, RequestStream, exponential_stream
from repro.harness.format import format_series, format_table, geomean
from repro.harness.pairsweep import family_of
from repro.harness.runner import (
    SCALE_PAPER,
    SCALE_QUICK,
    closed_loop_shared_run,
    prewarm_sft,
    run_stream_experiment,
    solo_completion_time,
    system_factories,
)


def test_scales():
    assert SCALE_QUICK.requests_per_stream < SCALE_PAPER.requests_per_stream
    assert SCALE_PAPER.scaled(seed=7).seed == 7
    assert SCALE_PAPER.seed == 42  # original untouched


def test_system_factories_cover_paper_labels():
    facts = system_factories()
    expected = {
        "CUDA", "GRR-Rain", "GMin-Rain", "GWtMin-Rain",
        "GRR-Strings", "GMin-Strings", "GWtMin-Strings",
        "TFS-Rain", "TFS-Strings",
        "GWtMin+LAS-Rain", "GWtMin+LAS-Strings", "GWtMin+PS-Strings",
        "LAS-Rain", "LAS-Strings", "PS-Strings",
        "RTF-Rain", "GUF-Rain", "RTF-Strings", "GUF-Strings",
        "DTF-Strings", "MBF-Strings",
    }
    assert expected <= set(facts)


def test_factories_build_working_systems():
    facts = system_factories()
    env = Environment()
    nodes, net = build_small_server(env)
    for label in ("GWtMin+LAS-Strings", "MBF-Strings", "TFS-Rain"):
        system = facts[label](env, nodes, net)
        assert hasattr(system, "session")


def test_run_stream_experiment_collects_all_requests():
    facts = system_factories()
    app = app_by_short("GA")
    stream = exponential_stream(app, RandomStream(1), 5, load_factor=1.0)
    run = run_stream_experiment(
        facts["GMin-Strings"], [stream], build_small_server, label="t"
    )
    assert len(run.results) == 5
    assert run.sim_time_s > 0
    assert run.per_app == {"GA": 5}


def test_a_seeded_stream_run_keeps_the_clock_a_python_float():
    clock = {}

    def testbed(env):
        clock["env"] = env
        return build_small_server(env)

    stream = exponential_stream(app_by_short("GA"), RandomStream(1), 5, load_factor=1.0)
    run = run_stream_experiment(system_factories()["GMin-Strings"], [stream], testbed)
    assert run.completed == 5
    assert type(clock["env"].now) is float


def _mc_ga_streams():
    return [
        exponential_stream(app_by_short(short), RandomStream(3, short), 4, 2.0)
        for short in ("MC", "GA")
    ]


def test_stream_run_conserves_requests():
    streams = _mc_ga_streams()
    run = run_stream_experiment(
        system_factories()["GMin-Strings"], streams, build_small_server
    )
    assert run.offered == run.completed + run.aborted + run.failed == sum(
        len(s) for s in streams
    )
    assert run.completed == len(run.results)


def test_lossy_stream_run_conserves_requests():
    # No retries under frequent device loss: some requests are lost, and
    # every one of them is still accounted for.
    streams = _mc_ga_streams()
    run = run_stream_experiment(
        system_factories()["GMin-Strings"], streams, build_small_server,
        fault_plan=parse_fault_spec("mtbf=2:mttr=1:until=60:seed=7,retries=0"),
    )
    assert run.offered == run.completed + run.aborted + run.failed == sum(
        len(s) for s in streams
    )
    assert run.failed == run.faults_summary["requests_lost"] > 0
    assert run.completed == len(run.results)


def test_run_stream_experiment_deterministic_under_seed():
    facts = system_factories()
    app = app_by_short("BS")

    def once():
        stream = exponential_stream(app, RandomStream(9, "det"), 4, 1.2)
        run = run_stream_experiment(
            facts["GRR-Strings"], [stream], build_small_server
        )
        return sorted(r.completion_s for r in run.results)

    assert once() == once()


def _at_once(short, n):
    return RequestStream([Request(app_by_short(short), 0.0) for _ in range(n)])


def test_latency_quantiles_are_read_under_the_null_registry():
    # A programmatic run gets the null registry, whose histogram records
    # nothing: the run's quantiles must come from its own samples.
    run = run_stream_experiment(
        system_factories()["GMin-Strings"], [_at_once("GA", 2)], build_small_server
    )
    assert run.completed == 2
    p50, p99 = run.latency_quantile(0.5), run.latency_quantile(0.99)
    assert 0 < p50 <= p99 <= run.latency_max_s
    assert p99 == pytest.approx(run.latency_max_s, rel=0.01)


def test_runs_sharing_a_label_keep_their_own_latency_quantiles():
    tel = obs.Telemetry()
    gmin = system_factories()["GMin-Strings"]
    slow = run_stream_experiment(
        gmin, [_at_once("BS", 2)], build_small_server, label="same", telemetry=tel
    )
    fast = run_stream_experiment(
        gmin, [_at_once("GA", 1)], build_small_server, label="same", telemetry=tel
    )
    assert fast.latency_max_s < slow.latency_max_s
    assert fast.latency_quantile(0.99) <= fast.latency_max_s
    assert slow.latency_quantile(0.99) <= slow.latency_max_s
    # The registry's histogram still gets every request, for exports.
    assert tel.histogram("harness.latency_s", label="same").count == 3


def test_prewarm_sft_populates_all_apps():
    env = Environment()
    nodes, net = build_small_server(env)
    system = StringsSystem(env, nodes, net, balancing=GMin())
    prewarm_sft(system)
    from repro.apps import ALL_APPS

    for app in ALL_APPS:
        assert system.sft.known(app.short)
    row = system.sft.lookup("MC")
    assert row.transfer_fraction > 0.9  # MC is transfer-dominated


def test_prewarm_sft_noop_for_cuda_baseline():
    facts = system_factories()
    env = Environment()
    nodes, net = build_small_server(env)
    system = facts["CUDA"](env, nodes, net)
    prewarm_sft(system)  # no mapper: must not raise


def test_solo_completion_time_close_to_analytic():
    facts = system_factories()
    app = app_by_short("BS")
    t = solo_completion_time(facts["CUDA"], app, build_single_gpu_server)
    assert t == pytest.approx(app.solo_runtime_s(), rel=0.05)


def test_closed_loop_counts_at_least_one_request_each():
    facts = system_factories()
    apps = [app_by_short("BS"), app_by_short("GA")]
    out = closed_loop_shared_run(
        facts["GMin-Strings"], apps, build_single_gpu_server, window_s=15.0
    )
    assert set(out) == {"BS", "GA"}
    assert all(v > 0 for v in out.values())


@pytest.fixture
def installed_tel():
    previous = obs.current()
    tel = obs.install(obs.Telemetry())
    yield tel
    obs.install(previous)


def _request_spans(tel):
    return [sp for sp in tel.spans if sp.cat == "request"]


def test_closed_loop_honours_the_installed_fault_plan(installed_tel):
    rig = (
        system_factories()["TFS-Strings"],
        [app_by_short("BS"), app_by_short("GA")],
        build_single_gpu_server,
        15.0,
    )
    clean = closed_loop_shared_run(*rig)
    faults.install_plan(parse_fault_spec("gpu_fail@5:gid=0:down=2"))
    try:
        faulted = closed_loop_shared_run(*rig)
    finally:
        faults.reset_plan()
    assert any(e.name == "redispatch" for e in installed_tel.decisions.events)
    assert faulted != clean


def test_closed_loop_and_solo_runs_are_observed_under_their_label(installed_tel):
    facts = system_factories()
    solo_completion_time(facts["CUDA"], app_by_short("BS"), build_single_gpu_server)
    closed_loop_shared_run(
        facts["GMin-Strings"], [app_by_short("BS"), app_by_short("GA")],
        build_single_gpu_server, window_s=15.0,
    )
    per_label = {}
    for sp in _request_spans(installed_tel):
        per_label[sp.run_label] = per_label.get(sp.run_label, 0) + 1
    assert per_label["solo:BS"] == 1
    assert per_label["closed-loop:BS+GA"] >= 2
    for label, n in per_label.items():
        assert installed_tel.histogram("harness.latency_s", label=label).count == n


def test_closed_loop_issues_only_inside_the_window(installed_tel):
    window_s = 15.0
    closed_loop_shared_run(
        system_factories()["GMin-Strings"], [app_by_short("BS"), app_by_short("GA")],
        build_single_gpu_server, window_s=window_s,
    )
    roots = _request_spans(installed_tel)
    assert all(sp.start < window_s for sp in roots)
    assert max(sp.end for sp in roots) >= window_s  # the last requests overrun it
    assert {sp.args["tenant"] for sp in roots} == {"tenant0", "tenant1"}


def test_family_of():
    assert family_of("GWtMin+LAS-Rain") == "Rain"
    assert family_of("MBF-Strings") == "Strings"


# -- formatting ------------------------------------------------------------------


def test_format_table_aligns():
    out = format_table(["a", "longer"], [[1.5, "x"], [22.25, "yy"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "1.50" in out
    assert "22.25" in out


def test_format_table_empty_rows():
    out = format_table(["h1", "h2"], [])
    assert "h1" in out


def test_format_series():
    out = format_series("s", ["a", "b"], [1.234, 5.0], y_fmt="{:.1f}")
    assert out == "s: a:1.2 b:5.0"


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)


@pytest.mark.parametrize("label", ["CUDA", "GMin-Rain", "GMin-Design2", "GMin-Strings"])
def test_a_request_runs_in_its_own_process_only(monkeypatch, label):
    """Session calls run inline and device ops chain by callback: one more
    request starts at most its request process, its session's backend
    issue loop and its ``cudaMalloc`` retry loop."""
    bodies = []
    original = Environment.process

    def counting(env, generator, name=None):
        bodies.append(generator.gi_code)
        return original(env, generator, name=name)

    monkeypatch.setattr(Environment, "process", counting)
    app = app_by_short("GA")
    solo = app.solo_runtime_s()

    def processes(n):
        bodies.clear()
        stream = RequestStream([Request(app, i * 2 * solo) for i in range(n)])
        run = run_stream_experiment(system_factories()[label], [stream], build_small_server)
        assert run.completed == n
        return len(bodies)

    assert processes(3) - processes(2) <= 3
    for code in bodies:
        path = code.co_filename.replace(os.sep, "/")
        assert not path.endswith("repro/core/translation.py"), code.co_name
        if "/repro/simgpu/" in path:
            assert code.co_name == "_control_loop", code.co_name
