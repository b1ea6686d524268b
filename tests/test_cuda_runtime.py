"""Unit tests for the simulated CUDA runtime API."""

import pytest

from repro.sim import Environment
from repro.simgpu import QUADRO_2000, TESLA_C2050, CopyKind, GpuDevice
from repro.cuda import CudaError, CudaErrorCode, CudaThread, HostProcess


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def devices(env):
    return [GpuDevice(env, QUADRO_2000), GpuDevice(env, TESLA_C2050)]


@pytest.fixture()
def proc(env, devices):
    return HostProcess(env, devices, name="app")


def test_process_requires_devices(env):
    with pytest.raises(CudaError):
        HostProcess(env, [])


def test_default_device_is_zero(proc):
    t = proc.spawn_thread()
    assert t.device_index == 0
    assert t.get_device_count() == 2


def test_set_device_switches(proc):
    t = proc.spawn_thread()
    t.set_device(1)
    assert t.device.spec.name == "Tesla C2050"


def test_set_device_out_of_range(proc):
    t = proc.spawn_thread()
    with pytest.raises(CudaError) as e:
        t.set_device(5)
    assert e.value.code == CudaErrorCode.INVALID_DEVICE


def test_get_device_properties(proc):
    t = proc.spawn_thread()
    assert t.get_device_properties(1).name == "Tesla C2050"
    assert t.get_device_properties().name == "Quadro 2000"


def test_threads_of_one_process_share_context(proc, devices):
    t1, t2 = proc.spawn_thread(), proc.spawn_thread()
    t1.set_device(1)
    t2.set_device(1)
    assert t1.context is t2.context
    assert len(devices[1].contexts) == 1


def test_separate_processes_get_separate_contexts(env, devices):
    p1 = HostProcess(env, devices, name="a")
    p2 = HostProcess(env, devices, name="b")
    t1, t2 = p1.spawn_thread(), p2.spawn_thread()
    t1.set_device(1)
    t2.set_device(1)
    assert t1.context is not t2.context
    assert len(devices[1].contexts) == 2


def test_malloc_free_roundtrip(env, proc, devices):
    t = proc.spawn_thread()
    t.set_device(1)
    ptr = t.malloc(1 << 20)
    assert devices[1].allocated_bytes == 1 << 20
    t.free(ptr)
    assert devices[1].allocated_bytes == 0


def test_malloc_oom_maps_to_cuda_error(env):
    dev = GpuDevice(env, TESLA_C2050.scaled(mem_capacity_mb=1))
    proc = HostProcess(env, [dev])
    t = proc.spawn_thread()
    with pytest.raises(CudaError) as e:
        t.malloc(2 << 20)
    assert e.value.code == CudaErrorCode.MEMORY_ALLOCATION


def test_free_bad_pointer(proc):
    t = proc.spawn_thread()
    with pytest.raises(CudaError) as e:
        t.free(0x123)
    assert e.value.code == CudaErrorCode.INVALID_DEVICE_POINTER


def test_sync_memcpy_blocks_for_wire_time(env, proc):
    t = proc.spawn_thread()
    t.set_device(1)
    finish = []

    def go(env):
        yield t.memcpy(30_000_000, CopyKind.H2D)  # pageable: 3 GB/s -> 10 ms
        finish.append(env.now)

    env.process(go(env))
    env.run()
    assert finish[0] == pytest.approx(0.01, rel=1e-2)


def test_async_memcpy_pinned_is_faster(env, proc):
    t = proc.spawn_thread()
    t.set_device(1)
    s = t.stream_create()
    finish = []

    def go(env):
        yield t.memcpy_async(30_000_000, CopyKind.H2D, stream=s)
        finish.append(env.now)

    env.process(go(env))
    env.run()
    # Pinned at 5.8 GB/s beats pageable at 3.0 GB/s.
    assert finish[0] < 0.01


def test_kernel_launch_is_asynchronous(env, proc):
    t = proc.spawn_thread()
    t.set_device(1)
    marks = []

    def go(env):
        done = t.launch_kernel(flops=103.0, bytes_accessed=0.001)  # 100 ms
        marks.append(("launched", env.now))
        yield env.timeout(0.001)
        marks.append(("still-running", env.now, done.processed))
        yield done
        marks.append(("done", env.now))

    env.process(go(env))
    env.run()
    assert marks[0] == ("launched", 0.0)
    assert marks[1][2] is False
    assert marks[2][1] == pytest.approx(0.1, rel=1e-2)


def test_stream_synchronize_waits_for_stream_only(env, proc):
    t = proc.spawn_thread()
    t.set_device(1)
    s1, s2 = t.stream_create(), t.stream_create()
    finish = []

    def go(env):
        t.launch_kernel(flops=103.0, bytes_accessed=0.001, stream=s1, occupancy=0.4)
        t.launch_kernel(flops=515.0, bytes_accessed=0.001, stream=s2, occupancy=0.4)
        yield t.stream_synchronize(s1)
        finish.append(("s1", env.now))
        yield t.stream_synchronize(s2)
        finish.append(("s2", env.now))

    env.process(go(env))
    env.run()
    # Both kernels co-resident while the short one runs: small penalty.
    assert finish[0][1] == pytest.approx(0.106, rel=1e-2)
    assert finish[1][1] == pytest.approx(0.506, rel=2e-2)


def test_stream_synchronize_idle_stream_is_immediate(env, proc):
    t = proc.spawn_thread()
    s = t.stream_create()
    finish = []

    def go(env):
        yield t.stream_synchronize(s)
        finish.append(env.now)

    env.process(go(env))
    env.run()
    assert finish[0] == 0.0


def test_device_synchronize_waits_all_context_streams(env, proc):
    # Two *threads of the same process* on one device: device_synchronize
    # from thread 1 also waits on thread 2's stream — the hazard SST fixes.
    t1, t2 = proc.spawn_thread(), proc.spawn_thread()
    t1.set_device(1)
    t2.set_device(1)
    s2 = t2.stream_create()
    finish = []

    def worker2(env):
        yield t2.launch_kernel(flops=515.0, bytes_accessed=0.001, stream=s2)

    def worker1(env):
        t1.launch_kernel(flops=103.0, bytes_accessed=0.001, occupancy=0.4)
        yield t1.device_synchronize()
        finish.append(env.now)

    env.process(worker2(env))
    env.process(worker1(env))
    env.run()
    # Waited for t2's 500 ms kernel too, not just its own 100 ms one.
    assert finish[0] >= 0.45


def test_thread_exit_releases_resources(env, proc, devices):
    t = proc.spawn_thread()
    t.set_device(1)
    t.malloc(1 << 20)
    s = t.stream_create()
    t.thread_exit()
    assert t.exited
    assert devices[1].allocated_bytes == 0
    assert s.destroyed
    with pytest.raises(CudaError):
        t.malloc(1)


def test_thread_exit_idempotent(proc):
    t = proc.spawn_thread()
    t.thread_exit()
    t.thread_exit()
    assert t.exited


def test_process_teardown_destroys_contexts(env, proc, devices):
    t = proc.spawn_thread()
    t.set_device(1)
    t.malloc(1 << 20)
    proc.teardown()
    assert devices[1].allocated_bytes == 0
    assert not proc.has_context(1)
