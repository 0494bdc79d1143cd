"""Kernel edge cases: condition failures, interrupt races, event misuse."""

import pytest

from repro.errors import SimulationError
from repro.obs import TimeSeriesRecorder
from repro.sim import Environment, MetricsRegistry
from repro.sim.events import Condition


class TestConditionFailures:
    def test_any_of_fails_when_child_fails_first(self):
        env = Environment()

        def worker(env):
            doomed = env.event()
            healthy = env.timeout(10.0)

            def fail_soon(env):
                yield env.timeout(1.0)
                doomed.fail(RuntimeError("child failed"))

            env.process(fail_soon(env))
            try:
                yield env.any_of([doomed, healthy])
            except RuntimeError as error:
                return str(error)

        process = env.process(worker(env))
        assert env.run(until=process) == "child failed"

    def test_all_of_fails_fast_on_any_child_failure(self):
        env = Environment()
        times = []

        def worker(env):
            doomed = env.event()
            slow = env.timeout(100.0)

            def fail_soon(env):
                yield env.timeout(1.0)
                doomed.fail(ValueError("nope"))

            env.process(fail_soon(env))
            try:
                yield env.all_of([doomed, slow])
            except ValueError:
                times.append(env.now)

        env.process(worker(env))
        env.run()
        assert times == [1.0]  # did not wait for the slow child

    def test_late_failing_child_of_decided_condition_is_defused(self):
        env = Environment()

        def worker(env):
            fast = env.timeout(1.0, value="fast")
            doomed = env.event()

            def fail_later(env):
                yield env.timeout(5.0)
                doomed.fail(RuntimeError("late failure"))

            env.process(fail_later(env))
            result = yield env.any_of([fast, doomed])
            return list(result.values())

        process = env.process(worker(env))
        assert env.run(until=process) == ["fast"]
        # The late failure must not crash the simulation when it fires.
        env.run()

    def test_condition_with_mixed_environments_rejected(self):
        env_a = Environment()
        env_b = Environment()
        with pytest.raises(ValueError):
            Condition(
                env_a,
                lambda events, count: True,
                [env_a.timeout(1), env_b.timeout(1)],
            )

    def test_condition_over_already_processed_events(self):
        env = Environment()
        done = env.timeout(1.0, value="x")
        env.run()

        def worker(env):
            result = yield env.all_of([done])
            return list(result.values())

        process = env.process(worker(env))
        assert env.run(until=process) == ["x"]


class TestEventMisuse:
    def test_fail_then_succeed_rejected(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("x"))
        event._defused = True
        with pytest.raises(SimulationError):
            event.succeed()
        env.run()

    def test_callback_on_processed_event_rejected(self):
        env = Environment()
        timeout = env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError):
            timeout.add_callback(lambda event: None)

    def test_ok_before_trigger_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().ok

    def test_schedule_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1.0)

    def test_yielding_event_of_another_environment_rejected(self):
        env, other = Environment(), Environment()

        def worker(env):
            yield other.timeout(1.0)

        process = env.process(worker(env))
        with pytest.raises(SimulationError, match="different environment"):
            env.run(until=process)

    def test_event_scheduled_twice_runs_callbacks_once(self):
        env = Environment()
        calls = []
        event = env.event()
        event.add_callback(lambda fired: calls.append(env.now))
        event.succeed("value")
        env.schedule(event, delay=1.0)
        env.run()
        assert calls == [0.0]
        assert event.processed and event.value == "value"
        # The second copy is dropped once it reaches the head of the
        # queue, as a cancelled entry is: no step pops it, so it moves
        # neither the clock nor the sampler.
        assert env.now == 0.0


class TestRunSemantics:
    def test_run_until_failed_event_raises(self):
        env = Environment()

        def failer(env):
            yield env.timeout(1.0)
            raise RuntimeError("process died")

        process = env.process(failer(env))
        with pytest.raises(RuntimeError, match="process died"):
            env.run(until=process)

    def test_run_until_event_that_never_fires(self):
        env = Environment()
        orphan = env.event()
        env.timeout(5.0)
        with pytest.raises(SimulationError, match="ran dry"):
            env.run(until=orphan)

    def test_nested_processes_compose(self):
        env = Environment()

        def leaf(env, value):
            yield env.timeout(1.0)
            return value * 2

        def middle(env):
            first = yield env.process(leaf(env, 10))
            second = yield env.process(leaf(env, first))
            return second

        def root(env):
            result = yield env.process(middle(env))
            return result

        process = env.process(root(env))
        assert env.run(until=process) == 40
        assert env.now == 2.0


class TestHooksAttachedMidRun:
    """``step`` re-reads the sampler slot on every event, so a recorder
    a callback attaches during ``run(until=...)`` is honoured without
    restarting the run."""

    @staticmethod
    def _ticker(env, ticks):
        for _ in range(10):
            yield env.timeout(1.0)
            ticks.increment()

    def test_recorder_samples_from_the_attaching_event_on(self):
        env = Environment()
        metrics = MetricsRegistry()
        ticks = metrics.counter("ticks")
        recorder = TimeSeriesRecorder(metrics, cadence=1.0)
        env.process(self._ticker(env, ticks))
        env.timeout(4.5).add_callback(lambda event: recorder.attach(env))
        env.run(until=20.0)
        # Attached at t=4.5, the first sweep is the next boundary, t=5,
        # once its tick has run; the cadence then samples every later
        # tick, and stopping at t=20 closes the last one, t=10.
        assert recorder.points("ticks") == [
            (5.0, 5.0), (6.0, 6.0), (7.0, 7.0),
            (8.0, 8.0), (9.0, 9.0), (10.0, 10.0),
        ]
