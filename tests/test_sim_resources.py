"""Unit tests for Resource, PriorityResource and Store."""

import pytest

from repro.sim import Environment, PriorityResource, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def worker(env, res, name):
        with res.request() as req:
            yield req
            log.append((env.now, name, "got"))
            yield env.timeout(2.0)

    for name in "abc":
        env.process(worker(env, res, name))
    env.run()
    # a and b at t=0, c after one of them releases at t=2
    assert log == [(0.0, "a", "got"), (0.0, "b", "got"), (2.0, "c", "got")]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            assert res.count == 1
            yield env.timeout(1.0)

    def observer(env, res):
        yield env.timeout(0.5)
        assert res.count == 1
        assert res.queued == 1

    env.process(holder(env, res))
    env.process(holder(env, res))
    env.process(observer(env, res))
    env.run()
    assert res.count == 0
    assert res.queued == 0


def test_resource_fifo_ignores_priority():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, name, prio):
        with res.request(priority=prio) as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    def spawn(env):
        env.process(worker(env, res, "first", prio=10))
        yield env.timeout(0)
        env.process(worker(env, res, "second", prio=0))
        env.process(worker(env, res, "third", prio=5))

    env.process(spawn(env))
    env.run()
    assert order == ["first", "second", "third"]


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, res, name, prio):
        with res.request(priority=prio) as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    def spawn(env):
        env.process(worker(env, res, "holder", prio=0))
        yield env.timeout(0.1)
        env.process(worker(env, res, "low", prio=9))
        env.process(worker(env, res, "high", prio=1))
        env.process(worker(env, res, "mid", prio=5))

    env.process(spawn(env))
    env.run()
    assert order == ["holder", "high", "mid", "low"]


def test_priority_ties_break_fifo():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, res, name):
        with res.request(priority=3) as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    def spawn(env):
        env.process(worker(env, res, "h"))
        yield env.timeout(0.1)
        for name in "abc":
            env.process(worker(env, res, name))

    env.process(spawn(env))
    env.run()
    assert order == ["h", "a", "b", "c"]


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(5.0)

    def impatient(env):
        req = res.request()
        result = yield req | env.timeout(1.0)
        if req not in result:
            req.cancel()
            got.append("gave-up")
        else:
            got.append("got-it")  # pragma: no cover

    def patient(env):
        yield env.timeout(0.5)
        with res.request() as req:
            yield req
            got.append(("patient", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert "gave-up" in got
    assert ("patient", 5.0) in got


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1.0)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            out.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (env.now, item)

    def producer(env):
        yield env.timeout(4.0)
        store.put("x")

    c = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert c.value == (4.0, "x")


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    out = []

    def consumer(env, name):
        item = yield store.get()
        out.append((name, item))

    def spawn_and_feed(env):
        env.process(consumer(env, "c1"))
        yield env.timeout(0)
        env.process(consumer(env, "c2"))
        yield env.timeout(1.0)
        store.put("first")
        store.put("second")

    env.process(spawn_and_feed(env))
    env.run()
    assert out == [("c1", "first"), ("c2", "second")]


def test_bounded_store_blocks_putters():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(2.0)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0.0) in log
    assert ("got", "a", 2.0) in log
    assert ("put-b", 2.0) in log


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2


def test_store_put_nowait_queues_no_event():
    env = Environment()
    store = Store(env)
    getter = store.get()
    store.put_nowait("first")  # handed to the waiting getter
    store.put_nowait("second")  # enqueued
    assert env.queue_depth == 1  # the getter's event, nothing for the puts
    env.run()
    assert getter.value == "first"
    assert list(store.items) == ["second"]


def test_full_bounded_store_rejects_put_nowait():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(OverflowError):
        store.put_nowait("b")
