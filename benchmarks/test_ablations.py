"""Ablation benchmarks for the design choices DESIGN.md §5 calls out.

Each ablation disables one Strings mechanism and measures the same
workload, quantifying that mechanism's contribution:

* context packing (Design III vs Design I);
* Memory Operation Translator (async pinned staging vs sync pageable);
* Sync Stream Translator (stream-narrowed vs whole-context sync);
* TFS history penalty;
* LAS decay constant k (paper uses 0.8);
* Design II head-of-line blocking (master-thread backend).
"""

from repro.cluster import build_single_gpu_server
from repro.core import RainSystem, StringsSystem
from repro.core.config import SchedulerConfig
from repro.core.policies import GMin, GRR, LAS, TFS
from repro.apps import app_by_short
from repro.metrics import jains_fairness
from repro.harness.ablations import _batch, _makespan
from repro.harness.runner import closed_loop_shared_run, solo_completion_time


def test_ablation_context_packing(once):
    """Design III (Strings) vs Design I (Rain) at identical balancing."""

    def measure():
        packed = _makespan(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GMin()),
            ["MC", "DC", "MC", "DC"],
        )
        unpacked = _makespan(
            lambda e, n, w: RainSystem(e, n, w, balancing=GMin()),
            ["MC", "DC", "MC", "DC"],
        )
        return packed, unpacked

    packed, unpacked = once(measure)
    # Packing lets co-located tenants overlap: strictly faster.
    assert packed < unpacked


def test_ablation_mot(once):
    """Sync->async memcpy translation on the transfer-dominated MonteCarlo."""

    def measure():
        with_mot = _makespan(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GMin(), mot_enabled=True),
            ["MC", "MC"],
        )
        without = _makespan(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GMin(), mot_enabled=False),
            ["MC", "MC"],
        )
        return with_mot, without

    with_mot, without = once(measure)
    assert with_mot < without  # pinned + async overlap wins


def test_ablation_sst(once):
    """Device-sync vs stream-sync inside a packed context.

    Without SST, the short Gaussian tenant's every cudaDeviceSynchronize
    waits on DXTC's long outstanding kernels too: GA's latency balloons.
    """

    def completion_per_app(sst_enabled: bool):
        results = _batch(
            lambda e, n, w: StringsSystem(e, n, w, balancing=GRR(), sst_enabled=sst_enabled),
            ["DC", "GA"],
            build_single_gpu_server,
        )
        return {r.app: r.completion_s for r in results}

    def measure():
        return completion_per_app(True), completion_per_app(False)

    with_sst, without = once(measure)
    # The victim of whole-context synchronization is the short tenant.
    assert with_sst["GA"] < without["GA"]


def test_ablation_tfs_history_penalty(once):
    """TFS fairness with and without the overshoot-history mechanism."""

    def fairness(history: bool):
        cfg = SchedulerConfig(tfs_history_penalty=history)

        def factory(env, nodes, net):
            return StringsSystem(
                env, nodes, net, balancing=GMin(), device_policy=TFS, config=cfg
            )

        apps = [app_by_short("DC"), app_by_short("MC")]
        solo = {
            a.short: solo_completion_time(factory, a, build_single_gpu_server)
            for a in apps
        }
        shared = closed_loop_shared_run(
            factory, apps, build_single_gpu_server, window_s=60.0
        )
        return jains_fairness([solo[a.short] / shared[a.short] for a in apps])

    def measure():
        return fairness(True), fairness(False)

    with_history, without = once(measure)
    # History can only help fairness (it corrects slice overshoot).
    assert with_history >= without - 0.05


def test_ablation_las_decay_constant(once):
    """LAS with the paper's k = 0.8 vs an over-smoothed k = 0.1.

    A high k tracks recent service (reactive, the paper's choice); a low k
    remembers history for a long time.  Both must run correctly; short
    jobs finish first either way.
    """

    def measure():
        out = {}
        for k in (0.8, 0.1):
            cfg = SchedulerConfig(las_k=k)

            def factory(env, nodes, net, c=cfg):
                return StringsSystem(
                    env, nodes, net, balancing=GMin(), device_policy=LAS, config=c
                )

            shared = closed_loop_shared_run(
                factory,
                [app_by_short("DC"), app_by_short("BS")],
                build_single_gpu_server,
                window_s=60.0,
            )
            out[k] = shared
        return out

    shared = once(measure)
    for k, result in shared.items():
        # LAS favours the short-episode BlackScholes over DXTC at any k.
        assert result["BS"] < result["DC"], k


def test_ablation_design2_head_of_line(once):
    """Design II's single master thread stalls every tenant behind one
    blocking call; Design III isolates them (paper Section III.B)."""
    from repro.sim import Environment
    from repro.cluster import build_single_gpu_server
    from repro.remoting import BackendDaemon
    from repro.simgpu import CopyKind

    def measure():
        env = Environment()
        nodes, _ = build_single_gpu_server(env)
        daemon = BackendDaemon(env, nodes[0])
        master = daemon.design2_master(0)
        t_b_done = {}

        def call_blocking(thread):
            yield thread.memcpy(300_000_000, CopyKind.H2D)  # 100 ms block

        def call_quick(thread):
            yield env.timeout(0)
            return env.now

        def client(env):
            master.submit(call_blocking)
            t_b_done["issued"] = env.now
            t_b_done["quick"] = yield master.submit(call_quick)

        env.process(client(env))
        env.run()

        # Design III: quick call on its own thread, unaffected.
        env2 = Environment()
        nodes2, _ = build_single_gpu_server(env2)
        daemon2 = BackendDaemon(env2, nodes2[0])
        w_block = daemon2.design3_worker("blocky", 0)
        w_quick = daemon2.design3_worker("quick", 0)
        t3 = {}

        def blocky(env2):
            yield w_block.memcpy(300_000_000, CopyKind.H2D)

        def quick(env2):
            yield env2.timeout(0)
            t3["quick"] = env2.now

        env2.process(blocky(env2))
        env2.process(quick(env2))
        env2.run()
        return t_b_done["quick"], t3["quick"]

    design2_quick, design3_quick = once(measure)
    assert design2_quick > 0.05  # stuck behind the 100 ms copy
    assert design3_quick < 0.01  # isolated
