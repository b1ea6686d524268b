"""Unit tests for the device-level policies (TFS / LAS / PS dispatchers)."""

import pytest

from repro.sim import Environment
from repro.simgpu import TESLA_C2050, GpuDevice, KernelOp
from repro.core.config import SchedulerConfig
from repro.core.gpu_scheduler import GpuScheduler
from repro.core.policies.device import LAS, PS, TFS, AlwaysAwake
from repro.core.rcb import GpuPhase, RcbEntry

CFG = SchedulerConfig()


def tenant_proc(env, sched, device, entry, n_ops, kernel_s=0.01, occupancy=0.4):
    """A synthetic backend thread: n_ops gated kernels on its own stream."""
    ctx = device.create_context(owner=entry.app_name)
    stream = ctx.create_stream()
    flops = kernel_s * TESLA_C2050.peak_gflops
    for _ in range(n_ops):
        yield sched.permission(entry, GpuPhase.KL)
        entry.issue()
        rec = yield device.submit(stream, KernelOp(flops=flops, bytes_accessed=1e-6, occupancy=occupancy))
        entry.complete(rec)
    return env.now


def setup(policy):
    env = Environment()
    device = GpuDevice(env, TESLA_C2050)
    sched = GpuScheduler(env, device, gid=0, policy=policy, config=CFG)
    return env, device, sched


def register(env, sched, name, weight=1.0):
    holder = {}

    def _reg(env):
        holder["entry"] = yield from sched.register(name, "t", weight)

    env.process(_reg(env))
    env.run(until=env.now + 0.001)
    return holder["entry"]


def test_always_awake_entries_never_gated():
    env, device, sched = setup(AlwaysAwake())
    e = register(env, sched, "A")
    assert e.awake
    ev = sched.permission(e, GpuPhase.KL)
    assert ev.triggered


def test_gated_policies_start_entries_asleep():
    env, device, sched = setup(TFS())
    e = register(env, sched, "A")
    assert not e.awake


def test_tfs_equal_weights_get_equal_service():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")
    env.process(tenant_proc(env, sched, device, a, n_ops=40))
    env.process(tenant_proc(env, sched, device, b, n_ops=40))
    env.run(until=1.0)
    assert a.service_attained_s > 0.05
    ratio = a.service_attained_s / max(b.service_attained_s, 1e-9)
    assert 0.7 < ratio < 1.4


def test_tfs_weighted_shares():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A", weight=3.0)
    b = register(env, sched, "B", weight=1.0)
    env.process(tenant_proc(env, sched, device, a, n_ops=200, kernel_s=0.005))
    env.process(tenant_proc(env, sched, device, b, n_ops=200, kernel_s=0.005))
    env.run(until=1.0)
    ratio = a.service_attained_s / max(b.service_attained_s, 1e-9)
    assert 1.8 < ratio < 4.5


def test_tfs_at_most_one_awake():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")
    c = register(env, sched, "C")
    env.process(tenant_proc(env, sched, device, a, n_ops=30))
    env.process(tenant_proc(env, sched, device, b, n_ops=30))
    env.process(tenant_proc(env, sched, device, c, n_ops=30))
    violations = []

    def probe(env):
        while env.now < 0.5:
            awake = sum(e.awake for e in (a, b, c))
            if awake > 1:
                violations.append((env.now, awake))
            yield env.timeout(0.001)

    env.process(probe(env))
    env.run(until=0.5)
    assert violations == []


def test_tfs_work_conserving_when_one_idle():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")  # never issues work
    done = env.process(tenant_proc(env, sched, device, a, n_ops=20, kernel_s=0.01))
    finish = env.run(until=done)
    # 20 x 10ms kernels ~ 0.2s of work; a full 50/50 split of epochs would
    # roughly double that. Work conservation keeps it close to solo.
    assert finish < 0.40


def test_las_prefers_least_attained_service():
    env, device, sched = setup(LAS())
    entries = [register(env, sched, n) for n in ("A", "B", "C", "D", "E")]
    # Give A a huge CGS history: with 5 runnable tenants and 3 wake slots,
    # A must be the one left out while the others run.
    entries[0].cgs = 100.0
    for e in entries:
        env.process(tenant_proc(env, sched, device, e, n_ops=10))
    env.run(until=0.3)
    others = [e.service_attained_s for e in entries[1:]]
    assert entries[0].service_attained_s <= min(others)


def test_las_decay_rolls_every_quantum():
    env, device, sched = setup(LAS())
    a = register(env, sched, "A")
    env.process(tenant_proc(env, sched, device, a, n_ops=10))
    env.run(until=0.3)
    # After several quanta with service, CGS must be positive.
    assert a.cgs > 0.0


def test_las_short_jobs_finish_first():
    env, device, sched = setup(LAS())
    long_e = register(env, sched, "LONG")
    short_e = register(env, sched, "SHORT")
    long_p = env.process(tenant_proc(env, sched, device, long_e, n_ops=50, kernel_s=0.02))
    short_p = env.process(tenant_proc(env, sched, device, short_e, n_ops=5, kernel_s=0.002))
    env.run()
    assert short_p.value < long_p.value


@pytest.mark.parametrize("policy", [TFS, LAS], ids=["TFS", "LAS"])
def test_slices_ending_by_timeout_leave_no_idle_waiter_behind(policy):
    # 0.2 s kernels span many TFS slices (40 ms) and LAS quanta (20 ms),
    # each of which ends by timeout while the tenant is still busy.
    env, device, sched = setup(policy())
    a = register(env, sched, "A")
    env.process(tenant_proc(env, sched, device, a, n_ops=3, kernel_s=0.2))
    for t in (0.1, 0.15, 0.35, 0.5):
        env.run(until=t)
        assert a.runnable
        assert len(a._idle_waiters) <= 1


# -- PS phase picking (pure logic) ------------------------------------------------


def entry_with(phase, service=0.0, name="X"):
    e = RcbEntry(app_name=name, tenant_id="t", tenant_weight=1.0, registered_at=0.0)
    e.pending = 1
    e.phase = phase
    e.service_attained_s = service
    return e


def test_ps_picks_one_per_phase():
    ps = PS()
    kl = entry_with(GpuPhase.KL, name="kl")
    h2d = entry_with(GpuPhase.H2D, name="h2d")
    d2h = entry_with(GpuPhase.D2H, name="d2h")
    extra = entry_with(GpuPhase.KL, service=9.0, name="kl2")
    picked = ps._pick([kl, h2d, d2h, extra])
    assert kl in picked and h2d in picked and d2h in picked
    assert extra not in picked


def test_ps_prefers_least_served_within_phase():
    ps = PS()
    hot = entry_with(GpuPhase.KL, service=5.0, name="hot")
    cold = entry_with(GpuPhase.KL, service=0.1, name="cold")
    picked = ps._pick([hot, cold])
    assert cold in picked


def test_ps_fills_spare_slots_by_phase_priority():
    ps = PS()
    k1 = entry_with(GpuPhase.KL, service=0.0, name="k1")
    k2 = entry_with(GpuPhase.KL, service=1.0, name="k2")
    k3 = entry_with(GpuPhase.KL, service=2.0, name="k3")
    k4 = entry_with(GpuPhase.KL, service=3.0, name="k4")
    picked = ps._pick([k1, k2, k3, k4])
    assert len(picked) == 3
    assert k4 not in picked  # most-served kernel-phase entry left out


def test_ps_overlaps_phases_on_device():
    env, device, sched = setup(PS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")
    # Both runnable in different phases: both should be awake together.
    sched.permission(a, GpuPhase.KL)
    sched.permission(b, GpuPhase.H2D)
    env.run(until=0.05)
    assert a.awake and b.awake
