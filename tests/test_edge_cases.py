"""Edge-case tests across the stack: failure propagation, teardown races,
destroyed-handle misuse."""

import pytest

from repro.sim import Environment, SimulationError
from repro.simgpu import CopyKind, GpuDevice, TESLA_C2050, KernelOp
from repro.cuda import CudaError, CudaErrorCode, HostProcess


# -- condition failure propagation -----------------------------------------------


def test_all_of_fails_fast_on_member_failure():
    env = Environment()
    ok = env.event()
    bad = env.event()

    def waiter(env):
        try:
            yield env.all_of([ok, bad])
        except ValueError as exc:
            return f"caught {exc}"

    def firer(env):
        yield env.timeout(1.0)
        bad.fail(ValueError("member"))
        yield env.timeout(1.0)
        ok.succeed()

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert w.value == "caught member"


def test_any_of_propagates_failure_too():
    env = Environment()
    bad = env.event()

    def waiter(env):
        try:
            yield env.any_of([bad, env.timeout(10.0)])
        except RuntimeError:
            return env.now

    def firer(env):
        yield env.timeout(2.0)
        bad.fail(RuntimeError("x"))

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run(until=20.0)
    assert w.value == 2.0


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.event(), env2.event()])


def test_process_failure_propagates_to_waiting_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_unwaited_process_failure_crashes_run():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    env.process(child(env))
    with pytest.raises(SimulationError):
        env.run()


# -- device teardown races --------------------------------------------------------------


def test_destroy_context_while_other_context_waiting():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx1 = dev.create_context(owner="a")
    ctx2 = dev.create_context(owner="b")
    s1, s2 = ctx1.create_stream(), ctx2.create_stream()
    finish = []

    def user1(env):
        yield dev.submit(s1, KernelOp(flops=103.0, bytes_accessed=0.001))
        dev.destroy_context(ctx1)

    def user2(env):
        yield env.timeout(0.01)  # arrive while ctx1 resident
        yield dev.submit(s2, KernelOp(flops=10.3, bytes_accessed=0.001))
        finish.append(env.now)

    env.process(user1(env))
    env.process(user2(env))
    env.run()
    assert finish and finish[0] > 0.1  # ran after ctx1's kernel + switch


def test_memcpy_async_on_destroyed_stream_rejected():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    proc = HostProcess(env, [dev])
    t = proc.spawn_thread()
    s = t.stream_create()
    t.stream_destroy(s)
    with pytest.raises(CudaError) as e:
        t.memcpy_async(1024, CopyKind.H2D, stream=s)
    assert e.value.code == CudaErrorCode.INVALID_RESOURCE_HANDLE


def test_launch_on_destroyed_stream_rejected():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    proc = HostProcess(env, [dev])
    t = proc.spawn_thread()
    s = t.stream_create()
    t.stream_destroy(s)
    with pytest.raises(CudaError):
        t.launch_kernel(1.0, 0.001, stream=s)


def test_device_malloc_negative_rejected():
    env = Environment()
    dev = GpuDevice(env, TESLA_C2050)
    ctx = dev.create_context(owner="a")
    with pytest.raises(ValueError):
        dev.malloc(ctx, -1)
