"""Integration tests: full request flows through the three runtime systems."""

import pytest

from repro.sim import Environment
from repro.cluster import build_paper_supernode, build_single_gpu_server, build_small_server
from repro.core import CudaRuntimeSystem, RainSystem, StringsSystem
from repro.core.policies import GMin, GRR, GWtMin, LAS, PS, TFS
from repro.core.policies.feedback import MBF
from repro.apps import app_by_short, run_request
from repro.harness.runner import run_stream_experiment, system_factories
from repro.workloads import Request, RequestStream


def run_n(make_system, app_shorts, testbed=build_small_server, until=None):
    env = Environment()
    nodes, net = testbed(env)
    system = make_system(env, nodes, net)
    sessions, procs = [], []
    for i, short in enumerate(app_shorts):
        spec = app_by_short(short)
        sess = system.session(spec.short, nodes[0], tenant_id=f"t{i}")
        sessions.append(sess)
        procs.append(env.process(run_request(env, sess, spec)))
    env.run(until=env.all_of(procs))
    return env, nodes, system, sessions, [p.value for p in procs]


def test_cuda_baseline_all_requests_collide_on_device0():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: CudaRuntimeSystem(e, n, w), ["BS", "BS", "BS"]
    )
    dev0, dev1 = nodes[0].devices
    assert dev0.kernels_completed == 3 * app_by_short("BS").iterations
    assert dev1.kernels_completed == 0  # static collision: device 1 idle
    assert dev0.ctx_switches > 0  # separate contexts multiplexed


def test_cuda_baseline_keeps_no_destroyed_context():
    devices = {}

    def testbed(env):
        nodes, net = build_small_server(env)
        devices["gpu0"] = nodes[0].devices[0]
        return nodes, net

    app = app_by_short("GA")
    stream = RequestStream([Request(app, i * app.solo_runtime_s()) for i in range(40)])
    run = run_stream_experiment(system_factories()["CUDA"], [stream], testbed)
    assert run.completed == 40
    # Every request's host process tore its context down on exit.
    assert devices["gpu0"].contexts == []


def test_rain_balances_but_separate_contexts():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: RainSystem(e, n, w, balancing=GRR()), ["BS", "BS"]
    )
    dev0, dev1 = nodes[0].devices
    assert dev0.kernels_completed > 0
    assert dev1.kernels_completed > 0  # balanced across both GPUs
    # Design I: one context per app on whichever device it used.
    assert len(dev0.contexts) == 1 and len(dev1.contexts) == 1


def test_strings_packs_one_context_per_device():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: StringsSystem(e, n, w, balancing=GMin()),
        ["BS", "BS", "BS", "BS"],
    )
    for dev in nodes[0].devices:
        assert len(dev.contexts) <= 1  # packed: one context per device
        assert dev.ctx_switches == 0


def test_strings_mot_uses_pinned_staging():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: StringsSystem(e, n, w, balancing=GRR()), ["MC"]
    )
    gid = sessions[0].binding.gid
    packer = system.packers[gid]
    spec = app_by_short("MC")
    # Every iteration staged one H2D and one D2H buffer through the PMT.
    assert packer.pmt.total_staged >= spec.iterations * spec.h2d_bytes
    assert len(packer.pmt) == 0  # all reclaimed at exit


def test_strings_feedback_reaches_sft():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: StringsSystem(e, n, w, balancing=GMin()), ["BS", "MC"]
    )
    assert system.sft.known("BS")
    assert system.sft.known("MC")
    row = system.sft.lookup("MC")
    assert row.transfer_fraction > 0.5  # MC is transfer-dominated
    assert 0 < row.runtime_s < 60


def test_rain_feedback_reaches_sft_too():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: RainSystem(e, n, w, balancing=GMin()), ["BS"]
    )
    assert system.sft.known("BS")


def test_dst_load_returns_to_zero_after_completion():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: StringsSystem(e, n, w, balancing=GMin()), ["BS", "GA"]
    )
    for row in system.pool.dst.rows():
        assert row.device_load == 0
        assert row.bound_profiles == []


def test_completion_results_well_formed():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: StringsSystem(e, n, w, balancing=GRR()), ["GA", "SN"]
    )
    for r in results:
        assert r.finish_s > r.start_s >= 0
        assert r.completion_s > 0


def test_strings_faster_than_rain_faster_than_cuda_under_sharing():
    """The paper's headline ordering on a contended node."""
    apps = ["MC", "DC", "MC", "DC"]

    def makespan(make):
        env, nodes, system, sessions, results = run_n(make, apps)
        return max(r.finish_s for r in results)

    t_cuda = makespan(lambda e, n, w: CudaRuntimeSystem(e, n, w))
    t_rain = makespan(lambda e, n, w: RainSystem(e, n, w, balancing=GMin()))
    t_strings = makespan(lambda e, n, w: StringsSystem(e, n, w, balancing=GMin()))
    assert t_strings < t_rain < t_cuda


def test_supernode_uses_remote_gpus():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: StringsSystem(e, n, w, balancing=GRR()),
        ["BS", "BS", "BS", "BS"],
        testbed=build_paper_supernode,
    )
    used = [gid for gid in system.pool.gids() if system.pool.device(gid).kernels_completed]
    assert len(used) == 4  # GRR spread across all four GPUs, incl. remote


def test_device_policies_run_under_full_stack():
    for policy in (TFS, LAS, PS):
        env, nodes, system, sessions, results = run_n(
            lambda e, n, w, p=policy: StringsSystem(
                e, n, w, balancing=GMin(), device_policy=p
            ),
            ["BS", "GA"],
            testbed=build_single_gpu_server,
        )
        assert len(results) == 2
        for r in results:
            assert r.completion_s > 0


def test_tfs_rain_runs_under_full_stack():
    env, nodes, system, sessions, results = run_n(
        lambda e, n, w: RainSystem(e, n, w, balancing=GMin(), device_policy=TFS),
        ["BS", "GA"],
        testbed=build_single_gpu_server,
    )
    assert len(results) == 2


def test_mbf_system_with_prewarmed_sft_balances():
    from repro.harness.runner import prewarm_sft

    def make(env, nodes, net):
        system = StringsSystem(env, nodes, net, balancing=GMin())
        system.mapper.policy = MBF(system.sft, fallback=GMin())
        prewarm_sft(system)
        return system

    env, nodes, system, sessions, results = run_n(make, ["HI", "HI"])
    # Two bandwidth-bound HI instances must land on different GPUs.
    gids = {s.binding.gid for s in sessions}
    assert len(gids) == 2
    assert system.mapper.policy.feedback_decisions == 2


def test_session_label_helper():
    env = Environment()
    nodes, net = build_small_server(env)
    system = StringsSystem(env, nodes, net, balancing=GWtMin(), device_policy=LAS)
    assert system.label() == "GWtMin+LAS-Strings"
    system2 = RainSystem(env, nodes, net, balancing=GRR())
    assert system2.label() == "GRR-Rain"
