"""Unit tests for the Store coordination primitive."""

from repro.sim import Environment, Store


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
