"""Unit tests for Store and Resource coordination primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def run_process(env, generator):
    process = env.process(generator)
    return env.run(until=process)


def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def worker(env):
        yield store.put("item")
        item = yield store.get()
        return item

    assert run_process(env, worker(env)) == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    log = []

    def consumer(env):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env):
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [(5.0, "late")]


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for index in range(3):
            yield store.put(index)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == [0, 1, 2]


def test_store_capacity_blocks_producer():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a-stored", env.now))
        yield store.put("b")
        log.append(("b-stored", env.now))

    def consumer(env):
        yield env.timeout(10.0)
        item = yield store.get()
        log.append(("got-" + item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("a-stored", 0.0), ("got-a", 10.0), ("b-stored", 10.0)]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_predicate_get_skips_non_matching():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        yield store.put({"kind": "x"})
        yield store.put({"kind": "y"})

    def consumer(env):
        item = yield store.get(predicate=lambda m: m["kind"] == "y")
        received.append(item["kind"])
        item = yield store.get()
        received.append(item["kind"])

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == ["y", "x"]


def test_store_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None

    def producer(env):
        yield store.put(1)

    env.process(producer(env))
    env.run()
    assert store.try_get() == 1
    assert store.try_get() is None


def test_store_put_nowait_serves_a_waiting_getter_at_once():
    env = Environment()
    store = Store(env)
    getter = store.get()
    env.run()
    assert not getter.triggered
    store.put_nowait("item")
    # Served inside the call, with no put event of its own.
    assert getter.triggered and getter.value == "item"
    assert len(store) == 0
    env.run()
    assert getter.processed


def test_store_put_nowait_fires_getter_where_put_would():
    """A put_nowait wakes the getter in the same queue slot a put
    does: after everything already scheduled for the instant."""

    def order(use_nowait):
        env = Environment()
        store = Store(env)
        log = []

        def consumer(env):
            item = yield store.get()
            log.append(("got", item))

        def producer(env):
            env.timeout(0).callbacks.append(lambda _: log.append(("other",)))
            if use_nowait:
                store.put_nowait("x")
            else:
                store.put("x")
            log.append(("produced",))
            yield env.timeout(1)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        return log

    assert order(True) == order(False) == [
        ("produced",),
        ("other",),
        ("got", "x"),
    ]


def test_store_put_nowait_queues_without_a_getter():
    env = Environment()
    store = Store(env)
    store.put_nowait(1)
    store.put_nowait(2)
    assert store.try_get() == 1
    assert store.try_get() == 2


def test_store_put_nowait_raises_on_a_full_store():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(SimulationError):
        store.put_nowait("b")
    assert list(store.items) == ["a"]


def test_store_get_cancel_withdraws_request():
    env = Environment()
    store = Store(env)
    outcomes = []

    def racer(env):
        get = store.get()
        timeout = env.timeout(1.0)
        result = yield env.any_of([get, timeout])
        if get in result:
            outcomes.append("got")
        else:
            get.cancel()
            outcomes.append("timed-out")

    def late_producer(env):
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(racer(env))
    env.process(late_producer(env))
    env.run()
    assert outcomes == ["timed-out"]
    # The cancelled get must not have consumed the item.
    assert store.try_get() == "late"


def test_resource_serialises_access():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def worker(env, tag, hold):
        request = resource.request()
        yield request
        log.append((tag, "acquired", env.now))
        yield env.timeout(hold)
        resource.release(request)

    env.process(worker(env, "a", 3.0))
    env.process(worker(env, "b", 1.0))
    env.run()
    assert log == [("a", "acquired", 0.0), ("b", "acquired", 3.0)]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def worker(env, tag):
        with resource.request() as request:
            yield request
            log.append((tag, env.now))
            yield env.timeout(1.0)

    for tag in ("a", "b", "c"):
        env.process(worker(env, tag))
    env.run()
    assert log == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_queue_length_and_count():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env):
        request = resource.request()
        yield request
        yield env.timeout(10.0)
        resource.release(request)

    def observer(env):
        yield env.timeout(1.0)
        resource.request()
        yield env.timeout(1.0)
        return resource.count, resource.queue_length

    env.process(holder(env))
    process = env.process(observer(env))
    assert env.run(until=process) == (1, 1)


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)
