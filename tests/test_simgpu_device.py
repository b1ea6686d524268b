"""Unit tests for GpuDevice: residency, streams, memory, overlap."""

import pytest

from repro.sim import Environment
from repro.simgpu import (
    QUADRO_2000,
    TESLA_C2050,
    CopyKind,
    CopyOp,
    GpuDevice,
    GpuOutOfMemoryError,
    KernelOp,
)


def kernel_100ms(occupancy=1.0, tag=""):
    # 103 GFLOP on a C2050 = 100 ms
    return KernelOp(flops=103.0, bytes_accessed=0.001, occupancy=occupancy, tag=tag)


def copy_10ms(kind=CopyKind.H2D):
    return CopyOp(nbytes=58_000_000, kind=kind, pinned=True)


def test_stream_ordering_serializes_ops():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    stream = ctx.create_stream()
    finish = []

    def go(env):
        e1 = dev.submit(stream, kernel_100ms())
        e2 = dev.submit(stream, kernel_100ms())
        yield e1
        finish.append(env.now)
        yield e2
        finish.append(env.now)

    env.process(go(env))
    env.run()
    assert finish[0] == pytest.approx(0.1, rel=1e-3)
    assert finish[1] == pytest.approx(0.2, rel=1e-3)


def test_different_streams_same_context_overlap():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s1, s2 = ctx.create_stream(), ctx.create_stream()
    finish = []

    def go(env):
        e1 = dev.submit(s1, kernel_100ms(occupancy=0.4))
        e2 = dev.submit(s2, kernel_100ms(occupancy=0.4))
        yield env.all_of([e1, e2])
        finish.append(env.now)

    env.process(go(env))
    env.run()
    # Full overlap (modulo the small co-residency penalty): ~100 ms, not 200.
    assert finish[0] == pytest.approx(0.1 * (1 + TESLA_C2050.concurrency_penalty), rel=1e-2)


def test_copy_overlaps_kernel_same_context():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s1, s2 = ctx.create_stream(), ctx.create_stream()
    finish = []

    def go(env):
        e1 = dev.submit(s1, kernel_100ms())
        e2 = dev.submit(s2, copy_10ms())
        yield env.all_of([e1, e2])
        finish.append(env.now)

    env.process(go(env))
    env.run()
    assert finish[0] == pytest.approx(0.1, rel=1e-2)  # hidden behind the kernel


def test_h2d_d2h_overlap_on_dual_engine_card():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s1, s2 = ctx.create_stream(), ctx.create_stream()
    done = []

    def go(env):
        e1 = dev.submit(s1, copy_10ms(CopyKind.H2D))
        e2 = dev.submit(s2, copy_10ms(CopyKind.D2H))
        yield env.all_of([e1, e2])
        done.append(env.now)

    env.process(go(env))
    env.run()
    assert done[0] == pytest.approx(0.01, rel=1e-2)


def test_h2d_d2h_serialize_on_single_engine_card():
    env = Environment()
    dev = GpuDevice(env, QUADRO_2000)
    ctx = dev.create_context(owner="p1")
    s1, s2 = ctx.create_stream(), ctx.create_stream()
    done = []

    def go(env):
        e1 = dev.submit(s1, copy_10ms(CopyKind.H2D))
        e2 = dev.submit(s2, copy_10ms(CopyKind.D2H))
        yield env.all_of([e1, e2])
        done.append(env.now)

    env.process(go(env))
    env.run()
    assert done[0] == pytest.approx(0.02, rel=1e-2)


def test_separate_contexts_serialize_with_switch_overhead():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx1 = dev.create_context(owner="p1")
    ctx2 = dev.create_context(owner="p2")
    s1 = ctx1.create_stream()
    s2 = ctx2.create_stream()
    finish = {}

    def go(env, stream, name):
        yield dev.submit(stream, kernel_100ms(occupancy=0.4))
        finish[name] = env.now

    env.process(go(env, s1, "a"))
    env.process(go(env, s2, "b"))
    env.run()
    # No overlap across contexts: second finishes ~0.2s + a switch.
    assert finish["a"] == pytest.approx(0.1, rel=1e-2)
    assert finish["b"] >= 0.2
    assert dev.ctx_switches >= 1


def test_context_timeslice_forces_alternation():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx1 = dev.create_context(owner="p1")
    ctx2 = dev.create_context(owner="p2")
    s1, s2 = ctx1.create_stream(), ctx2.create_stream()
    order = []

    def chain(env, stream, name, n):
        for i in range(n):
            yield dev.submit(stream, KernelOp(flops=10.3, bytes_accessed=0.0001))
            order.append(name)

    env.process(chain(env, s1, "a", 8))
    env.process(chain(env, s2, "b", 8))
    env.run()
    # Both made progress interleaved: "b" kernels complete before all "a".
    first_b = order.index("b")
    assert first_b < 8
    assert dev.ctx_switches >= 2


def test_same_context_reacquire_costs_no_switch():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s = ctx.create_stream()

    def go(env):
        for _ in range(5):
            yield dev.submit(s, KernelOp(flops=10.3, bytes_accessed=0.0001))
            yield env.timeout(0.05)  # long gaps between ops

    env.process(go(env))
    env.run()
    assert dev.ctx_switches == 0


def test_malloc_and_free_track_capacity():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    ptr = dev.malloc(ctx, 1024)
    assert dev.allocated_bytes == 1024
    assert ctx.allocated_bytes == 1024
    dev.free(ctx, ptr)
    assert dev.allocated_bytes == 0


def test_malloc_oom():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050.scaled(mem_capacity_mb=1))
    ctx = dev.create_context(owner="p1")
    dev.malloc(ctx, 512 * 1024)
    with pytest.raises(GpuOutOfMemoryError):
        dev.malloc(ctx, 600 * 1024)


def test_free_unknown_pointer_rejected():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    with pytest.raises(ValueError):
        dev.free(ctx, 0xDEAD)


def test_destroy_context_releases_memory():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    dev.malloc(ctx, 4096)
    dev.destroy_context(ctx)
    assert dev.allocated_bytes == 0
    assert ctx.destroyed


def test_submit_to_destroyed_context_rejected():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s = ctx.create_stream()
    dev.destroy_context(ctx)
    with pytest.raises(RuntimeError):
        dev.submit(s, kernel_100ms())


def test_busy_fraction_counts_any_engine():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050, trace=True)
    ctx = dev.create_context(owner="p1")
    s = ctx.create_stream()

    def go(env):
        yield dev.submit(s, kernel_100ms())
        yield env.timeout(0.1)

    env.process(go(env))
    env.run()
    assert dev.busy_fraction(0.0, 0.2) == pytest.approx(0.5, rel=2e-2)


def test_op_counters():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s = ctx.create_stream()

    def go(env):
        yield dev.submit(s, kernel_100ms())
        yield dev.submit(s, copy_10ms())

    env.process(go(env))
    env.run()
    assert dev.kernels_completed == 1
    assert dev.copies_completed == 1


def test_stream_idle_and_synchronize_event():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="p1")
    s = ctx.create_stream()
    assert s.idle
    assert s.synchronize_event() is None

    def go(env):
        ev = dev.submit(s, kernel_100ms())
        assert not s.idle
        sync = s.synchronize_event()
        assert sync is ev
        yield sync
        assert s.idle

    env.process(go(env))
    env.run()
