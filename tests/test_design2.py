"""Design II as a first-class system: end-to-end behaviour, the
head-of-line-blocking regression it exists to demonstrate, and survival
of backend crashes through the shared master."""

import pytest

from repro.sim import Environment
from repro.cluster import build_single_gpu_server, build_small_server
from repro.core import Design2System, RainSystem, StringsSystem
from repro.core.gpool import DeviceHealth
from repro.core.policies import GMin
from repro.core.sessions import ManagedSession
from repro.core.translation import QueuedStreamSync, StagedAsyncCopy
from repro.apps import app_by_short, run_request
from repro.faults import parse_fault_spec
from repro.harness.runner import run_stream_experiment, system_factories
from repro.workloads import Request, RequestStream


def _run(system_cls, shorts, testbed=build_single_gpu_server, **kw):
    env = Environment()
    nodes, net = testbed(env)
    system = system_cls(env, nodes, net, balancing=GMin(), **kw)
    sessions, procs = [], {}
    for i, short in enumerate(shorts):
        spec = app_by_short(short)
        sess = system.session(spec.short, nodes[0], tenant_id=f"t{i}")
        sessions.append(sess)
        procs[f"{short}:{i}"] = env.process(run_request(env, sess, spec))
    env.run(until=env.all_of(list(procs.values())))
    return env, nodes, system, sessions, {k: p.value for k, p in procs.items()}


# -- end-to-end --------------------------------------------------------------


def test_design2_completes_mixed_workload():
    env, nodes, system, sessions, results = _run(
        Design2System, ["MC", "DC", "GA"], testbed=build_small_server
    )
    assert all(r.finish_s > 0 for r in results.values())
    assert system.label() == "GMin-Design2"
    assert all(isinstance(s, ManagedSession) for s in sessions)
    assert all(s.system is system for s in sessions)


def test_design2_tenants_share_one_master_thread_and_loop():
    env, nodes, system, sessions, results = _run(Design2System, ["BS", "GA"])
    gid = sessions[0].binding.gid
    entry = system.pool.gmap.lookup(gid)
    daemon = system.daemons[entry.hostname]
    master = daemon.design2_master(entry.local_id)
    assert sessions[0].worker is master.thread
    assert sessions[1].worker is master.thread
    assert sessions[0]._loop is master.loop is sessions[1]._loop
    assert master.calls_served > 0


def test_design2_uses_packed_context_translations():
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    sess = Design2System(env, nodes, net, balancing=GMin()).session("MC", nodes[0])
    assert isinstance(sess.translation.copy, StagedAsyncCopy)
    assert isinstance(sess.translation.sync, QueuedStreamSync)


def test_design2_teardown_keeps_shared_thread_alive():
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    system = Design2System(env, nodes, net, balancing=GMin())
    sessions = [
        system.session(short, nodes[0], tenant_id=f"t{i}")
        for i, short in enumerate(["BS", "GA"])
    ]

    def tenant(sess):
        try:
            yield env.process(run_request(env, sess, app_by_short(sess.app_name)))
        except RuntimeError:
            pass  # the abort below

    for sess in sessions:
        env.process(tenant(sess))
    env.run(until=1.0)  # both tenants bound and mid-run (they end ~2-3 s)
    entry = system.pool.gmap.lookup(sessions[0].binding.gid)
    master = system.daemons[entry.hostname].design2_master(entry.local_id)
    for sess in sessions:
        sess.abort(RuntimeError("tenant gone"))
    env.run()
    # Both tenants are gone; the device's master thread must survive.
    assert all(s.aborted for s in sessions)
    assert not master.thread.exited
    assert all(s.packed is None for s in sessions)


def test_design2_registered_in_harness_factories():
    factories = system_factories()
    assert "GMin-Design2" in factories and "GRR-Design2" in factories
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    assert isinstance(factories["GMin-Design2"](env, nodes, net), Design2System)


# -- the head-of-line-blocking regression ------------------------------------


def test_design2_hol_blocks_short_tenant_but_design3_does_not():
    """The paper's Fig. 5 argument, as a regression test: next to a long
    tenant (DC), a short tenant (GA) is delayed under Design II's shared
    master but not under Design III's thread-per-app."""

    def ga_completion(system_cls):
        env, nodes, system, sessions, results = _run(system_cls, ["DC", "GA"])
        return results["GA:1"].completion_s

    d2 = ga_completion(Design2System)
    d3 = ga_completion(StringsSystem)
    rain = ga_completion(RainSystem)
    # Design III isolates the short tenant; Design II makes it wait out
    # the long tenant's blocking calls — a multiple, not a margin.
    assert d2 > 3 * d3
    # Design II's penalty is of the same order as no sharing at all.
    assert d2 == pytest.approx(rain, rel=0.25)


def test_design2_long_tenant_not_hurt():
    """HoL blocking punishes the *short* tenant; the long tenant's own
    completion should be comparable across Designs II and III."""

    def dc_completion(system_cls):
        env, nodes, system, sessions, results = _run(system_cls, ["DC", "GA"])
        return results["DC:0"].completion_s

    assert dc_completion(Design2System) == pytest.approx(
        dc_completion(StringsSystem), rel=0.05
    )


# -- chaos: the shared master under backend crashes --------------------------


def test_design2_master_survives_backend_crash_and_respawns():
    captured = {}

    def factory(env, nodes, net):
        system = Design2System(env, nodes, net, balancing=GMin())
        entry = system.pool.gmap.lookup(0)
        daemon = system.daemons[entry.hostname]
        captured.update(system=system, daemon=daemon, local_id=entry.local_id)

        def watch():
            yield env.timeout(0.9)  # just before the crash at t=1
            captured["old_master"] = daemon._masters.get(entry.local_id)
            yield env.timeout(0.11)  # just after it, before any retry
            captured["after_crash"] = daemon._masters.get(entry.local_id)

        env.process(watch())
        return system

    streams = [
        RequestStream([
            Request(app_by_short(short), 0.1 * i, tenant_id=f"t{i}")
            for i, short in enumerate(["MC", "BS", "GA"])
        ])
    ]
    plan = parse_fault_spec(
        "backend_crash@1:gid=0:restart=0.5,retries=8,backoff=0.05,warmup=0.5"
    )
    run = run_stream_experiment(
        factory, streams, build_single_gpu_server, fault_plan=plan
    )
    system, daemon = captured["system"], captured["daemon"]

    # Every request completed despite the mid-run crash.
    assert run.completed == len(run.results) == 3
    assert all(r.finish_s > 0 for r in run.results)
    summary = run.faults_summary
    assert summary["requests_lost"] == 0
    assert summary["requests_redispatched"] > 0
    assert system.pool.dst.row(0).health is DeviceHealth.HEALTHY

    # The crash forgets the device process and its master; re-binding
    # after the restart spawned a *fresh* master on a fresh process, and
    # the dead master's thread went down with its process.
    old_master = captured["old_master"]
    assert old_master is not None
    assert captured["after_crash"] is None
    new_master = daemon._masters.get(captured["local_id"])
    assert new_master is not None
    assert new_master is not old_master
    assert old_master.thread.exited
    assert not new_master.thread.exited
