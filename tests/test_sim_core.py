"""Unit tests for the DES kernel: environment, events, processes."""

import pytest

from repro.sim import Environment, Event, EventPriority, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 3.5
    assert env.now == 3.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=5.0)
    assert env.now == 5.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker(env, "a", 2.0))
    env.process(worker(env, "b", 1.0))
    env.process(worker(env, "c", 2.0))
    env.run()
    assert log == [(1.0, "b"), (2.0, "a"), (2.0, "c")]


def test_same_time_events_fifo_order():
    env = Environment()
    log = []

    def worker(env, name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abcde":
        env.process(worker(env, name))
    env.run()
    assert log == list("abcde")


def test_urgent_events_run_before_queued_normal_ones():
    # A process start (Initialize) and any event scheduled URGENT overtake
    # a NORMAL event that was queued before them at the same time.
    env = Environment()
    log = []

    def note(name):
        return lambda _ev: log.append(name)

    first = env.event()
    first.callbacks.append(note("normal@0"))
    first.succeed()

    def starter(env):
        log.append("initialize@0")
        yield env.timeout(10.0)

    def poker(env):
        yield env.timeout(1.0)
        queued = env.event()
        queued.callbacks.append(note("normal@1"))
        queued.succeed()
        urgent = Event(env)
        urgent.callbacks.append(note("urgent@1"))
        env.schedule(urgent, EventPriority.URGENT)

    env.process(starter(env))
    env.process(poker(env))
    env.run()
    assert log == ["initialize@0", "normal@0", "urgent@1", "normal@1"]


def test_run_processes_every_event_through_step(monkeypatch):
    # Hooks that replace Environment.step (a setup probe, a tracer) must
    # see every event, whichever way run() is called.
    calls = []
    step = Environment.step

    def counting_step(self):
        calls.append(self.now)
        step(self)

    monkeypatch.setattr(Environment, "step", counting_step)
    env = Environment()

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(1.0)
        return n

    env.process(ticker(env, 10))
    env.run(until=2.5)
    assert len(calls) == env.events_processed > 0
    assert env.run(until=env.process(ticker(env, 3))) == 3
    assert len(calls) == env.events_processed
    env.run()
    assert len(calls) == env.events_processed
    assert env.now == 10.0


def test_event_succeed_carries_value():
    env = Environment()
    ev = env.event()

    def waiter(env, ev):
        value = yield ev
        return value

    def firer(env, ev):
        yield env.timeout(1.0)
        ev.succeed(42)

    w = env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert w.value == 42


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter(env, ev):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def firer(env, ev):
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    w = env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert w.value == "caught boom"


def test_unhandled_failure_surfaces_as_simulation_error():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("kaput")

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_process_waits_on_other_process():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (3.0, "child-result")


def test_all_of_waits_for_every_event():
    env = Environment()
    t1 = env.timeout(1.0, value="one")
    t2 = env.timeout(4.0, value="four")

    def proc(env):
        result = yield env.all_of([t1, t2])
        return (env.now, result)

    p = env.process(proc(env))
    env.run()
    assert p.value == (4.0, None)
    assert t1.processed and t2.processed
    assert (t1.value, t2.value) == ("one", "four")


def test_any_of_returns_on_first_event():
    env = Environment()
    t1 = env.timeout(1.0, value="fast")
    t2 = env.timeout(4.0, value="slow")

    def proc(env):
        result = yield env.any_of([t1, t2])
        return (env.now, result, t1.processed, t2.processed)

    p = env.process(proc(env))
    env.run(until=10.0)
    assert p.value == (1.0, None, True, False)
    assert t1.value == "fast"


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_event_already_processed():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "v"

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == "v"


# -- relay ---------------------------------------------------------------------


def test_relay_runs_at_once_when_nothing_else_is_due():
    env = Environment()
    log = []
    tick = env.timeout(1.0)
    tick.callbacks.append(lambda _e: env.relay(lambda: log.append(env.now)))
    env.timeout(2.0)
    env.step()
    # The callback ran inside the step that processed the timeout, with
    # no relay event queued or counted.
    assert log == [1.0]
    assert env.events_processed == 1
    assert env.queue_depth == 1


def test_relay_queues_behind_a_normal_event_due_at_the_same_instant():
    env = Environment()
    log = []
    tick = env.timeout(1.0)
    tick.callbacks.append(lambda _e: env.relay(lambda: log.append("relayed")))
    env.timeout(1.0).callbacks.append(lambda _e: log.append("due"))
    env.step()
    assert log == []  # one zero-delay relay event, queued behind it
    env.run()
    assert log == ["due", "relayed"]
    assert env.events_processed == 3


def test_relay_queues_behind_an_urgent_event_due_at_the_same_instant():
    env = Environment()
    log = []
    urgent = Event(env)
    urgent.callbacks.append(lambda _e: log.append("urgent"))
    tick = env.timeout(1.0)
    tick.callbacks.append(lambda _e: env.schedule(urgent, EventPriority.URGENT))
    tick.callbacks.append(lambda _e: env.relay(lambda: log.append("relayed")))
    env.run()
    assert log == ["urgent", "relayed"]
    assert env.events_processed == 3
