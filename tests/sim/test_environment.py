"""Unit tests for the discrete-event kernel: environment, events, processes."""

import pytest

from repro.errors import EmptySchedule, SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()
    timeout = env.timeout(5.0, value="done")
    result = env.run(until=timeout)
    assert result == "done"
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_nan_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0


def test_run_until_time_stops_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=3.0)
    assert env.now == 3.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_empty_schedule_returns():
    env = Environment()
    assert env.run() is None


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_process_returns_value():
    env = Environment()

    def worker(env):
        yield env.timeout(2.0)
        return 42

    process = env.process(worker(env))
    assert env.run(until=process) == 42
    assert env.now == 2.0


def test_process_sequencing_same_time_is_fifo():
    env = Environment()
    order = []

    def worker(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(worker(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    env = Environment()

    def inner(env):
        yield env.timeout(3.0)
        return "inner-result"

    def outer(env):
        result = yield env.process(inner(env))
        return result + "!"

    process = env.process(outer(env))
    assert env.run(until=process) == "inner-result!"


def test_process_failure_propagates_to_waiter():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def waiter(env):
        try:
            yield env.process(failing(env))
        except RuntimeError as error:
            return f"caught {error}"

    process = env.process(waiter(env))
    assert env.run(until=process) == "caught boom"


def test_unhandled_process_failure_crashes_simulation():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("nobody catches this")

    env.process(failing(env))
    with pytest.raises(RuntimeError, match="nobody catches this"):
        env.run()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_unavailable_until_triggered():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_manual_event_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def opener(env):
        yield env.timeout(4.0)
        gate.succeed("open")

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    env.process(opener(env))
    env.process(waiter(env))
    env.run()
    assert log == [(4.0, "open")]


def test_any_of_fires_on_first():
    env = Environment()

    def worker(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        results = yield env.any_of([fast, slow])
        return list(results.values())

    process = env.process(worker(env))
    assert env.run(until=process) == ["fast"]
    # The slow timeout still exists but the run is over at t=1 + slow at 5.
    env.run()
    assert env.now == 5.0


def test_all_of_waits_for_every_event():
    env = Environment()

    def worker(env):
        events = [env.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        results = yield env.all_of(events)
        return sorted(results.values())

    process = env.process(worker(env))
    assert env.run(until=process) == [1.0, 2.0, 3.0]
    assert env.now == 3.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def worker(env):
        results = yield env.all_of([])
        return results

    process = env.process(worker(env))
    assert env.run(until=process) == {}


def test_run_until_already_processed_event():
    env = Environment()
    timeout = env.timeout(1.0, value="x")
    env.run()
    assert env.run(until=timeout) == "x"


def test_deterministic_event_ordering_with_priorities():
    env = Environment()
    order = []

    def a(env):
        yield env.timeout(1.0)
        order.append("a")
        yield env.timeout(0.0)
        order.append("a2")

    def b(env):
        yield env.timeout(1.0)
        order.append("b")

    env.process(a(env))
    env.process(b(env))
    env.run()
    assert order == ["a", "b", "a2"]


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 7.0
