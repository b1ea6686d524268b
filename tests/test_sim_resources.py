"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def worker(env, res, name):
        req = res.request()
        yield req
        log.append((env.now, name, "got"))
        yield env.timeout(2.0)
        res.release(req)

    for name in "abc":
        env.process(worker(env, res, name))
    env.run()
    # a and b at t=0, c after one of them releases at t=2
    assert log == [(0.0, "a", "got"), (0.0, "b", "got"), (2.0, "c", "got")]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        req = res.request()
        yield req
        assert res.count == 1
        yield env.timeout(1.0)
        res.release(req)

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


def test_resource_grants_in_request_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, name):
        req = res.request()
        yield req
        order.append((env.now, name))
        yield env.timeout(1.0)
        res.release(req)

    def spawn(env):
        env.process(worker(env, res, "first"))
        yield env.timeout(0)
        for name in ("second", "third", "fourth"):
            env.process(worker(env, res, name))

    env.process(spawn(env))
    env.run()
    assert order == [(0.0, "first"), (1.0, "second"), (2.0, "third"), (3.0, "fourth")]


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


def test_store_put_queues_no_event():
    env = Environment()
    store = Store(env)
    getter = store.get()
    assert store.put("first") is None  # handed to the waiting getter
    store.put("second")  # enqueued
    assert env.queue_depth == 1  # the getter's event, nothing for the puts
    env.run()
    assert getter.value == "first"
    assert list(store.items) == ["second"]
