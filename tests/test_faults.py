"""Tests for the fault-injection & self-healing subsystem (repro.faults)."""

import pytest

import repro.cluster.network as network_mod
import repro.faults as faults
from repro.sim import Environment
from repro.cluster import (
    Network,
    build_paper_supernode,
    build_single_gpu_server,
    build_small_server,
)
from repro.apps.catalog import app_by_short
from repro.core.gpool import DeviceHealth
from repro.core.policies.balancing import GMin, GRR, placeable_rows
from repro.core.systems import StringsSystem
from repro.faults import (
    FaultPlan,
    RecoveryManager,
    RetryPolicy,
    parse_fault_spec,
)
import repro.obs as obs
from repro.harness import registry
from repro.harness.__main__ import main
from repro.harness.runner import SCALE_QUICK, run_stream_experiment, system_factories
from repro.obs import Telemetry
from repro.remoting.backend import BackendDaemon
from repro.sim.rng import RandomStream
from repro.workloads import Request, RequestStream, exponential_stream


# ---------------------------------------------------------------------------
# FaultPlan & --faults grammar
# ---------------------------------------------------------------------------


def test_parse_full_spec():
    plan = parse_fault_spec(
        "gpu_fail@40:gid=2:down=20,gpu_recover@70:gid=2,"
        "backend_crash@60:gid=1:restart=5,"
        "link_degrade@10:lat=4:bw=0.25:dur=30,"
        "link_partition@10:host=nodeB:dur=15,"
        "mtbf=300:mttr=30:until=900:seed=7:gids=0+2,"
        "retries=9,backoff=0.1,warmup=3"
    )
    kinds = [e.kind for e in plan.events]
    assert kinds == [
        "gpu_fail", "gpu_recover", "backend_crash", "link_degrade", "link_partition",
    ]
    assert plan.events[0].down_s == 20
    assert plan.events[2].restart_s == 5
    assert plan.events[3].latency_mult == 4
    assert plan.events[3].bandwidth_mult == 0.25
    assert plan.events[4].host == "nodeB"
    assert plan.retry == RetryPolicy(max_retries=9, base_backoff_s=0.1)
    assert plan.warmup_s == 3
    # The random process expands deterministically against the pool.
    ev1 = plan.events_for([0, 1, 2])
    ev2 = plan.events_for([0, 1, 2])
    assert ev1 == ev2
    assert all(e.gid in (0, 2) for e in ev1 if e.t not in {10, 40, 60, 70})
    assert [e.t for e in ev1] == sorted(e.t for e in ev1)


def test_parse_transient_flag():
    plan = parse_fault_spec("gpu_fail@5:gid=0:transient")
    assert plan.events[0].transient is True


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "gpu_melt@5:gid=0",          # unknown kind
        "gpu_fail:gid=0",            # no @time
        "gpu_fail@x:gid=0",          # non-numeric time
        "gpu_fail@5",                # missing gid
        "gpu_fail@5:gid=0:down=-1",  # bad duration
        "link_degrade@5:lat=2",      # missing dur
        "link_partition@5:dur=10",   # missing host
        "mtbf=300:until=900",        # random process missing mttr
        "mtbf=300:mttr=30:until=900:gids=a+b",
        "frobnicate=1",              # unknown global
    ],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_fault_spec(spec)


def test_retry_backoff_caps():
    r = RetryPolicy(max_retries=5, base_backoff_s=0.05, max_backoff_s=0.4)
    assert r.backoff_s(1) == pytest.approx(0.05)
    assert r.backoff_s(3) == pytest.approx(0.2)
    assert r.backoff_s(10) == pytest.approx(0.4)  # capped


def test_plan_slot_roundtrip():
    assert faults.current_plan() is None
    plan = FaultPlan()
    assert faults.install_plan(plan) is plan
    assert faults.current_plan() is plan
    faults.reset_plan()
    assert faults.current_plan() is None


# ---------------------------------------------------------------------------
# Network degradation / partition / CLI-configurable defaults
# ---------------------------------------------------------------------------


def test_network_degrade_and_exact_restore():
    net = Network(latency_s=100e-6, bandwidth_gbps=10.0)
    base_xfer = net.transfer_delay(1 << 20, local=False)
    base_msg = net.message_delay(local=False)
    net.degrade(latency_mult=4.0, bandwidth_mult=0.25)
    assert net.transfer_delay(1 << 20, local=False) > base_xfer
    assert net.message_delay(local=False) > base_msg
    # Local paths never see link degradation.
    assert net.transfer_delay(1 << 20, local=True) == Network(
        latency_s=100e-6, bandwidth_gbps=10.0
    ).transfer_delay(1 << 20, local=True)
    net.restore()
    # Byte-identical after restore: multipliers are applied last.
    assert net.transfer_delay(1 << 20, local=False) == base_xfer
    assert net.message_delay(local=False) == base_msg


def test_network_degrade_validates():
    net = Network()
    with pytest.raises(ValueError):
        net.degrade(latency_mult=0.0)
    with pytest.raises(ValueError):
        net.degrade(bandwidth_mult=-1.0)


def test_network_partition_heal():
    net = Network()
    assert net.reachable("nodeB")
    net.partition("nodeB")
    assert not net.reachable("nodeB")
    assert net.reachable("nodeA")
    net.heal("nodeB")
    assert net.reachable("nodeB")


def test_network_defaults_configurable():
    try:
        network_mod.configure_defaults(latency_s=50e-6, bandwidth_gbps=25.0)
        net = Network()
        assert net.latency_s == 50e-6
        assert net.bandwidth_gbps == 25.0
        # Explicit arguments still win over configured defaults.
        assert Network(bandwidth_gbps=1.0).bandwidth_gbps == 1.0
    finally:
        network_mod.reset_defaults()
    assert Network().bandwidth_gbps == 10.0


def test_network_defaults_validate():
    try:
        with pytest.raises(ValueError):
            network_mod.configure_defaults(bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            network_mod.configure_defaults(latency_s=-1.0)
    finally:
        network_mod.reset_defaults()


# ---------------------------------------------------------------------------
# DST health states & policy eligibility
# ---------------------------------------------------------------------------


def _supernode_system(env):
    nodes, net = build_paper_supernode(env)
    return StringsSystem(env, nodes, net, balancing=GMin())


def test_unhealthy_rows_excluded_from_placement():
    env = Environment()
    system = _supernode_system(env)
    dst = system.pool.dst
    dst.row(1).health = DeviceHealth.UNHEALTHY
    assert [r.gid for r in dst.eligible_rows()] == [0, 2, 3]
    assert dst.eligible_gids() == [0, 2, 3]
    grr = GRR()
    chosen = {grr.select(system.pool, dst, "MC", "nodeA") for _ in range(8)}
    assert chosen == {0, 2, 3}
    assert GMin().select(system.pool, dst, "MC", "nodeA") != 1


def test_all_unhealthy_falls_back_to_full_table():
    env = Environment()
    system = _supernode_system(env)
    dst = system.pool.dst
    for row in dst.rows():
        row.health = DeviceHealth.UNHEALTHY
    assert dst.eligible_rows() == []
    assert [r.gid for r in placeable_rows(dst)] == [0, 1, 2, 3]


def test_draining_penalty_steers_but_keeps_eligible():
    env = Environment()
    system = _supernode_system(env)
    dst = system.pool.dst
    row = dst.row(0)
    row.health = DeviceHealth.DRAINING
    row.load_penalty = 10.0
    assert row in dst.eligible_rows()
    assert row.effective_load == pytest.approx(10.0)
    # GMin now avoids the draining device even though it has no load.
    assert GMin().select(system.pool, dst, "MC", "nodeA") != 0


def test_effective_load_identity_on_null_path():
    env = Environment()
    system = _supernode_system(env)
    row = system.pool.dst.row(0)
    row.device_load = 3
    assert row.effective_load == 3.0
    assert isinstance(row.effective_load, float)


# ---------------------------------------------------------------------------
# Backend crash & respawn
# ---------------------------------------------------------------------------


def test_backend_crash_device_and_lazy_respawn():
    env = Environment()
    nodes, _ = build_small_server(env)
    daemon = BackendDaemon(env, nodes[0])
    assert daemon.crash_device(0) is False  # nothing to crash yet
    w1 = daemon.design3_worker("app1", local_device=0)
    ctx1 = w1.context
    assert daemon.crash_device(0) is True
    assert w1.exited
    assert daemon.resident_tenants(0) == 0
    # The next binding re-spawns a fresh process with a fresh context.
    w2 = daemon.design3_worker("app2", local_device=0)
    assert not w2.exited
    assert w2.context is not ctx1


def test_scheduler_evict_is_idempotent_and_emits_no_profile():
    env = Environment()
    system = _supernode_system(env)
    sched = system.schedulers[0]
    entry = env.run(until=env.process(sched.register("MC", "t0")))
    assert len(sched.rcb) == 1
    sched.evict(entry)
    assert len(sched.rcb) == 0
    assert sched.profiles_sent == 0  # no SFT pollution from partial runs
    sched.evict(entry)  # second evict is a no-op
    assert len(sched.rcb) == 0


# ---------------------------------------------------------------------------
# Recovery manager: retry budget & loss surfacing
# ---------------------------------------------------------------------------


def test_retry_budget_exhaustion_surfaces_devices_unavailable():
    """With the only GPU down for good, every attempt binds to it (the
    placement fallback), fails fast with a retryable NO_DEVICE, and the
    third attempt spends the two-retry budget: the request is lost,
    counted ``failed`` and ``requests_lost``, not raised."""
    tel = Telemetry()
    plan = parse_fault_spec("gpu_fail@0:gid=0,retries=2,backoff=0.05")
    stream = RequestStream([Request(app_by_short("MC"), 0.0, tenant_id="t9")])
    run = run_stream_experiment(
        system_factories()["GMin-Strings"], [stream], build_single_gpu_server,
        telemetry=tel, fault_plan=plan,
    )
    rows = [
        e for e in tel.decisions.events
        if e.kind == "fault" and e.name in ("redispatch", "request_lost")
    ]
    assert [e.name for e in rows] == ["redispatch", "redispatch", "request_lost"]
    # Backoffs 0.05 then 0.1 between the three attempts.
    assert [e.t for e in rows] == pytest.approx([0.0, 0.05, 0.15], abs=1e-3)
    assert rows[-1].args["attempts"] == 3
    assert {e.args["error"] for e in rows} == {"CudaError"}
    assert run.completed == 0 and run.failed == 1 and run.offered == 1
    summary = run.faults_summary
    assert summary["retries"] == 2
    assert summary["requests_lost"] == 1
    assert summary["requests_redispatched"] == 0
    assert summary["tenant_downtime_s"]["t9"] == pytest.approx(0.15, abs=1e-3)


# ---------------------------------------------------------------------------
# Chaos acceptance: kill a GPU mid-run, lose nothing
# ---------------------------------------------------------------------------


def _chaos(tel):
    """The chaos experiment at quick scale, recording into ``tel``."""
    obs.install(tel)
    try:
        ctx = registry.ExperimentContext(scale=SCALE_QUICK)
        return registry.execute("chaos", ctx)[1]
    finally:
        obs.reset()


def test_chaos_scenario_loses_zero_requests():
    tel = Telemetry()
    data = _chaos(tel)
    assert data["offered"] == 3 * SCALE_QUICK.requests_per_stream
    assert data["completed"] == data["offered"]
    assert data["lost"] == 0
    assert data["faults_injected"] == {"gpu_fail": 1, "backend_crash": 1}
    assert data["redispatched"] > 0
    # Some tenant really felt the outage.
    assert max(data["tenant_downtime_s"].values(), default=0.0) > 0
    assert data["gpu_downtime_s"].get("1", 0.0) > 0

    events = tel.decisions.events_of("fault")
    names = [e.name for e in events]
    assert "gpu_unhealthy" in names
    assert "backend_crash" in names
    assert "gpu_draining" in names and "gpu_healthy" in names
    # Every retry appears in the decision log as a redispatch row.
    redispatches = [e for e in events if e.name == "redispatch"]
    assert len(redispatches) == data["retries"]
    assert all(
        {"app", "tenant", "attempt", "from_gid", "error"} <= set(e.args)
        for e in redispatches
    )


def test_chaos_failed_attempts_close_their_spans_and_stay_out_of_blame():
    from repro.obs import profile_requests

    tel = Telemetry()
    data = _chaos(tel)
    roots = [s for s in tel.spans if s.cat == "request"]
    failed = [s for s in roots if s.args.get("failed_attempt")]
    # One root per attempt: the completed requests plus each retry.
    assert len(roots) == data["completed"] + data["retries"] == 24
    assert [s for s in roots if not s.finished] == []
    assert len(failed) == data["retries"] == 6
    # Blame covers each completed request once, not its failed attempts.
    assert len(profile_requests(tel).requests) == data["completed"] == 18


def test_chaos_main_prints_availability(capsys):
    assert main(["chaos", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "[chaos] requests lost: 0" in out
    assert "downtime" in out


def test_gpu_fail_recover_cycle_reaches_healthy_again():
    env = Environment()
    system = _supernode_system(env)
    rec = RecoveryManager(env, system, FaultPlan(warmup_s=1.0), {})
    dst = system.pool.dst

    def script():
        yield env.timeout(1.0)
        rec.fail_gpu(1)
        assert dst.row(1).health is DeviceHealth.UNHEALTHY
        yield env.timeout(5.0)
        rec.recover_gpu(1)
        assert dst.row(1).health is DeviceHealth.DRAINING
        yield env.timeout(2.0)
        assert dst.row(1).health is DeviceHealth.HEALTHY
        assert dst.row(1).load_penalty == 0.0

    env.process(script())
    env.run()
    assert rec.summary()["gpu_downtime_s"][1] == pytest.approx(5.0)


def test_link_partition_marks_remote_gpus_and_heals():
    env = Environment()
    system = _supernode_system(env)
    rec = RecoveryManager(env, system, FaultPlan(warmup_s=0.5), {})

    def script():
        yield env.timeout(1.0)
        rec.partition_host("nodeB")
        assert not system.network.reachable("nodeB")
        downs = [r.gid for r in system.pool.dst.rows()
                 if r.health is DeviceHealth.UNHEALTHY]
        assert downs == [2, 3]  # nodeB's GPUs
        yield env.timeout(2.0)
        rec.heal_host("nodeB")
        assert system.network.reachable("nodeB")
        yield env.timeout(1.0)
        assert all(
            r.health is DeviceHealth.HEALTHY for r in system.pool.dst.rows()
        )

    env.process(script())
    env.run()


def test_fault_plan_on_cuda_baseline_is_noop():
    app = app_by_short("MC")
    from repro.sim.rng import RandomStream

    stream = exponential_stream(app, RandomStream(1, "x"), 3, 2.0)
    plan = FaultPlan().gpu_fail(0.1, gid=0)
    res = run_stream_experiment(
        system_factories()["CUDA"], [stream], build_small_server, fault_plan=plan
    )
    assert len(res.results) == 3
    assert res.faults_summary is None  # no gPool to heal around


def test_stream_experiment_without_plan_has_no_summary():
    app = app_by_short("MC")
    from repro.sim.rng import RandomStream

    stream = exponential_stream(app, RandomStream(1, "x"), 3, 2.0)
    res = run_stream_experiment(
        system_factories()["GMin-Strings"], [stream], build_small_server
    )
    assert res.faults_summary is None


@pytest.mark.parametrize(
    "spec", ["gpu_fail@1:gid=3:down=20", "mtbf=2:mttr=1:until=60:gids=0+5"]
)
def test_fault_plan_rejects_a_gid_the_pool_lacks(spec):
    stream = exponential_stream(app_by_short("GA"), RandomStream(1, "x"), 3, 2.0)
    # The small server's pool is gids 0 and 1: the run must refuse the
    # plan before simulating, naming the bad gid and the valid ones.
    with pytest.raises(ValueError, match=r"gid [35], but the pool has gids 0, 1"):
        run_stream_experiment(
            system_factories()["GMin-Strings"], [stream], build_small_server,
            fault_plan=parse_fault_spec(spec),
        )


def test_fault_plan_rejects_a_host_the_pool_lacks():
    stream = exponential_stream(app_by_short("GA"), RandomStream(1, "x"), 3, 2.0)
    plan = parse_fault_spec("link_partition@1:host=nodeZ:dur=5")
    with pytest.raises(ValueError, match="'nodeZ', but the pool has hosts nodeA, nodeB"):
        run_stream_experiment(
            system_factories()["GMin-Strings"], [stream], build_paper_supernode,
            fault_plan=plan,
        )
