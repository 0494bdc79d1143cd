"""TimeSeriesRecorder: cadence sampling, windows, rings, edge cases."""

import math
import random
import tracemalloc
from time import perf_counter

import pytest

from repro.core import World, mutual_trust, standard_host
from repro.faults.chaos import run_chaos, standard_slos
from repro.net import Position, WIFI_ADHOC
from repro.obs import RunReport, TimeSeriesRecorder
from repro.sim import Environment, MetricsRegistry


def ticking_env(registry, ticks=10, spacing=1.0, work=None):
    """An environment whose process ticks ``ticks`` times, calling
    ``work(i)`` before each tick to touch the registry."""
    env = Environment()

    def ticker(env):
        for index in range(ticks):
            if work is not None:
                work(index)
            yield env.timeout(spacing)

    env.process(ticker(env))
    return env


class TestSampling:
    def test_counters_and_gauges_sampled_per_cadence(self):
        registry = MetricsRegistry()
        env = ticking_env(
            registry,
            ticks=10,
            spacing=1.0,
            work=lambda i: (
                registry.counter("work.done").increment(),
                registry.gauge("queue.depth").set(float(i)),
            ),
        )
        recorder = TimeSeriesRecorder(registry, cadence=2.0).attach(env)
        env.run()
        counter_points = recorder.points("work.done")
        assert counter_points, "no samples recorded"
        times = [time for time, _ in counter_points]
        assert times == sorted(times)
        # Cadence 2 over 10 ticks of 1s: one sample per even boundary.
        assert [time % 2.0 for time in times] == [0.0] * len(times)
        # Counter values are cumulative and non-decreasing.
        values = [value for _, value in counter_points]
        assert values == sorted(values)
        assert recorder.points("queue.depth")

    def test_windowed_histogram_quantiles(self):
        registry = MetricsRegistry()

        def work(i):
            # Tick i contributes samples centred on 10*i, so each
            # window's median identifies its tick.
            for offset in (-1.0, 0.0, 1.0):
                registry.histogram("lat").observe(10.0 * i + offset)

        env = ticking_env(registry, ticks=4, spacing=1.0, work=work)
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run(until=10.0)
        p50 = recorder.window_quantiles("lat", "p50")
        assert [value for _, value in p50] == [0.0, 10.0, 20.0, 30.0]
        counts = recorder.points("lat.count")
        # Stopping at t=10 closes the ticker's last instant, t=4, whose
        # window is empty: count 0, and no quantile point (only 4 p50
        # entries above).
        assert [value for _, value in counts] == [3.0, 3.0, 3.0, 3.0, 0.0]

    def test_window_consumes_each_sample_once(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        recorder = TimeSeriesRecorder(registry, cadence=1.0)
        histogram.observe(1.0)
        histogram.observe(2.0)
        recorder.sample(0.0)
        # Quantile query in between sorts the internal copy; the
        # insertion-order buffer must be unaffected.
        assert histogram.p99 == pytest.approx(1.99)
        histogram.observe(0.5)
        recorder.sample(1.0)
        counts = [value for _, value in recorder.points("lat.count")]
        assert counts == [2.0, 1.0]
        assert [value for _, value in recorder.window_quantiles("lat", "p50")] \
            == [1.5, 0.5]

    def test_ring_buffer_caps_points(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0, capacity=4)
        for tick in range(10):
            recorder.sample(float(tick))
        points = recorder.points("c")
        assert len(points) == 4
        assert [time for time, _ in points] == [6.0, 7.0, 8.0, 9.0]

    def test_names_filter_restricts_series(self):
        registry = MetricsRegistry()
        registry.counter("keep").increment()
        registry.counter("drop").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0, names=["keep"])
        recorder.sample(0.0)
        assert recorder.series_names() == ["keep"]

    def test_long_gap_yields_one_sample_not_backfill(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        env = Environment()

        def sleeper(env):
            yield env.timeout(100.0)

        env.process(sleeper(env))
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run(until=200.0)
        # Two instants with events (t=0 and t=100): one sweep each,
        # not 100 backfilled boundary points.
        assert [time for time, _ in recorder.points("c")] == [0.0, 100.0]


class TestInstantRule:
    """A boundary is swept once every event at or before it has run."""

    # 3 * 0.1 is 0.30000000000000004, whose quotient by 0.1 rounds up
    # past 3: the boundary is still the grid point the event sits on.
    @pytest.mark.parametrize("cadence", [1.0, 0.1])
    def test_event_exactly_at_a_boundary_is_in_its_sweep(self, cadence):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        env = Environment()

        def bump(_event):
            counter.increment()
            # A second event at the same instant, queued from inside the
            # first: it still belongs to the boundary's sweep.
            follow = env.event()
            follow.callbacks.append(lambda _e: counter.increment())
            follow.succeed()

        env.timeout(3 * cadence).callbacks.append(bump)
        env.timeout(3.5 * cadence)
        recorder = TimeSeriesRecorder(registry, cadence=cadence).attach(env)
        env.run()
        assert recorder.points("c") == [(0.0, 0.0), (3 * cadence, 2.0)]

    def test_event_just_past_a_boundary_is_not_in_its_sweep(self):
        # 0.9000000000000001 / 0.1 rounds down to exactly 9, yet the
        # event lies past the grid point 9 * 0.1 == 0.9.
        registry = MetricsRegistry()
        counter = registry.counter("c")
        env = Environment()
        late = math.nextafter(0.9, math.inf)
        env.timeout(late).callbacks.append(lambda _e: counter.increment())
        env.timeout(0.95)
        recorder = TimeSeriesRecorder(registry, cadence=0.1).attach(env)
        env.run(until=2.0)
        assert recorder.points("c") == [(0.0, 0.0), (1.0, 1.0)]

    def test_gap_over_several_boundaries_gives_one_sweep(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        env = Environment()
        env.timeout(0.25).callbacks.append(lambda _e: counter.increment())
        env.timeout(10.5).callbacks.append(lambda _e: counter.increment())
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run(until=20.0)
        # t=0 (nothing yet), t=1 closes the event at 0.25, and the quiet
        # boundaries 2..10 share that state, so the next sweep is t=11.
        assert recorder.points("c") == [(0.0, 0.0), (1.0, 1.0), (11.0, 2.0)]

    def test_run_until_a_boundary_defers_its_sweep(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        env = Environment()
        env.timeout(1.5).callbacks.append(lambda _e: counter.increment())
        env.timeout(3.0).callbacks.append(lambda _e: counter.increment())
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run(until=3.0)
        # The event at t=3 is still queued, so t=3 is not closed yet.
        assert recorder.points("c") == [(0.0, 0.0), (2.0, 1.0)]
        env.run(until=5.0)
        assert recorder.points("c") == [(0.0, 0.0), (2.0, 1.0), (3.0, 2.0)]

    def test_same_instant_event_count_and_order_do_not_move_a_sample(self):
        def points(extra, urgent):
            registry = MetricsRegistry()
            counter = registry.counter("c")
            env = Environment()
            env.timeout(1.0).callbacks.append(lambda _e: counter.increment())
            for _ in range(extra):
                # No-op events at the boundary's instant, either side of
                # the counted one.
                event = env.event()
                event._value = None
                env.schedule(event, 1.0, priority=urgent)
            env.timeout(1.5)
            recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
            env.run(until=2.0)
            return recorder.points("c")

        expected = points(0, False)
        assert expected == [(0.0, 0.0), (1.0, 1.0)]
        assert points(3, False) == expected
        assert points(3, True) == expected

    def test_sweep_sees_the_boundary_as_now(self):
        registry = MetricsRegistry()
        env = Environment()
        seen = []
        env.timeout(0.5)
        env.timeout(2.5)
        recorder = TimeSeriesRecorder(
            registry, cadence=1.0, extra_probe=lambda: seen.append(env.now) or {}
        ).attach(env)
        env.run()
        assert seen == [0.0, 1.0]


class TestNoOpEventsInAChaosRun:
    """Series and health are a function of the run, not of how many
    events each instant took: no-op events scattered over the instants
    of a quick chaos run, on either side of the run's own events, leave
    its report unchanged."""

    PARAMS = dict(seed=7, clients=3, servers=2, requests_per_client=4)

    @staticmethod
    def _run(monkeypatch, on_world):
        sample_series = World.sample_series

        def hooked(world, *args, **kwargs):
            recorder = sample_series(world, *args, **kwargs)
            on_world(world)
            return recorder

        monkeypatch.setattr(World, "sample_series", hooked)
        outcome = run_chaos(
            sample_cadence=0.5,
            slos=standard_slos(),
            **TestNoOpEventsInAChaosRun.PARAMS,
        )
        monkeypatch.setattr(World, "sample_series", sample_series)
        return outcome.report

    def test_noop_events_leave_series_and_health_unchanged(self, monkeypatch):
        instants = []

        def record_instants(world):
            env = world.env
            step = env.step

            def recording_step():
                step()
                instants.append(env.now)

            env.step = recording_step

        expected = self._run(monkeypatch, record_instants)
        distinct = sorted(set(instants))
        picks = sorted(random.Random(2024).sample(distinct, len(distinct) // 2))

        def scatter_noops(world):
            env = world.env
            rng = random.Random(99)

            def noop_after(_event):
                # Queued from inside the instant: after every event the
                # instant already holds at its priority.
                follow = env.event()
                follow._value = None
                env.schedule(follow, priority=rng.random() < 0.5)

            for instant in picks:
                for _ in range(rng.randint(1, 3)):
                    event = env.event()
                    event._value = None
                    if rng.random() < 0.5:
                        event.callbacks.append(noop_after)
                    env.schedule(
                        event, instant - env.now, priority=rng.random() < 0.5
                    )

        actual = self._run(monkeypatch, scatter_noops)
        assert expected["series"]["series"] and expected["health"]["events"]
        assert actual["series"] == expected["series"]
        assert actual["health"] == expected["health"]
        assert actual == expected


class TestEdgeCases:
    def test_zero_samples_without_events(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        env = Environment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run()  # empty schedule: no steps, no samples
        assert recorder.samples_taken == 0
        assert recorder.series_names() == []
        assert recorder.as_dict()["series"] == {}

    def test_single_sample_single_event(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        env = Environment()
        env.timeout(0.0)  # Timeout self-schedules its event
        recorder = TimeSeriesRecorder(registry, cadence=5.0).attach(env)
        env.run(until=1.0)
        assert recorder.samples_taken == 1
        assert recorder.points("c") == [(0.0, 1.0)]

    def test_cadence_longer_than_run(self):
        registry = MetricsRegistry()
        env = ticking_env(
            registry,
            ticks=3,
            spacing=1.0,
            work=lambda i: registry.counter("c").increment(),
        )
        recorder = TimeSeriesRecorder(registry, cadence=1000.0).attach(env)
        env.run()
        # Only the initial boundary (t=0) fires inside the run.
        assert recorder.samples_taken == 1
        assert recorder.points("c")[0][0] == 0.0

    def test_empty_histogram_window_records_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("lat")  # exists but never observed
        recorder = TimeSeriesRecorder(registry, cadence=1.0)
        recorder.sample(0.0)
        assert recorder.points("lat.count") == [(0.0, 0.0)]
        assert recorder.window_quantiles("lat", "p50") == []

    def test_constructor_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, cadence=0.0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, capacity=0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, histogram_stats=("median",))
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, histogram_stats=("p101",))

    def test_one_recorder_per_environment(self):
        registry = MetricsRegistry()
        env = Environment()
        first = TimeSeriesRecorder(registry).attach(env)
        with pytest.raises(RuntimeError):
            TimeSeriesRecorder(registry).attach(env)
        first.detach()
        TimeSeriesRecorder(registry).attach(env)  # slot freed

    def test_detach_stops_sampling_keeps_points(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0)
        env = Environment()
        recorder.attach(env)
        recorder.sample(0.0)
        recorder.detach()
        assert env._sampler is None
        assert not recorder.attached
        assert recorder.points("c") == [(0.0, 1.0)]


class TestDisabledCost:
    @staticmethod
    def _peak_over_steps(recorder):
        """Peak bytes traced over 9,999 kernel steps between boundaries,
        with ``recorder`` attached (or none)."""
        env = Environment()
        for index in range(10_000):
            event = env.event()
            event._value = None
            env.schedule(event, 1.0 + index)
        if recorder is not None:
            recorder.attach(env)
        env.step()  # closes the initial boundary, t=0
        tracemalloc.start()
        for _ in range(9_999):
            env.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_disabled_on_step_is_allocation_free(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        # Cadence 1 with an event every second: every step crosses a
        # boundary, so the kernel would call an enabled recorder each
        # time.  A disabled one is never due again after its first call.
        recorder = TimeSeriesRecorder(registry, cadence=1.0, enabled=False)
        attached = self._peak_over_steps(recorder)
        detached = self._peak_over_steps(None)
        assert recorder.samples_taken == 0
        assert recorder.due == float("inf")
        # The queue's list shrinks as it drains, which allocates with or
        # without a recorder; the attached one must add nothing to that.
        assert attached < detached + 4096, (
            f"disabled recorder allocated {attached - detached} bytes"
        )

    def test_between_boundaries_is_allocation_free(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1e9)
        attached = self._peak_over_steps(recorder)
        detached = self._peak_over_steps(None)
        assert recorder.samples_taken == 1
        assert attached < detached + 4096, (
            f"idle attached recorder allocated {attached - detached} bytes"
        )

    def test_disabled_recorder_cost_vs_kernel_events(self):
        """A disabled recorder's hook must be well under kernel event
        cost — the analogue of the disabled-tracing <10% guard."""
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, enabled=False)

        started = perf_counter()
        for step in range(100_000):
            recorder.close(0.0)
        hook_seconds = perf_counter() - started

        def kernel_events():
            env = Environment()

            def ticker(env):
                for _ in range(10_000):
                    yield env.timeout(1.0)

            env.process(ticker(env))
            env.run()

        started = perf_counter()
        kernel_events()
        kernel_seconds = perf_counter() - started
        per_hook = hook_seconds / 100_000
        per_event = kernel_seconds / 10_000
        assert per_hook < per_event * 0.10, (
            f"disabled close costs {per_hook / per_event * 100:.1f}% "
            "of a kernel event"
        )


class TestWorldIntegration:
    def small_world(self, cadence):
        world = World(seed=3, trace_enabled=True)
        world.transport._rng.random = lambda: 0.999
        recorder = world.sample_series(cadence=cadence)
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(20, 0), [WIFI_ADHOC])
        mutual_trust(a, b)
        b.register_service("echo", lambda args, host: (args, 16))

        def go():
            for index in range(3):
                yield from a.component("cs").call("b", "echo", index)

        process = world.env.process(go())
        world.run(until=process)
        return world, recorder

    def test_world_run_emits_series(self):
        world, recorder = self.small_world(cadence=0.005)
        assert recorder.samples_taken > 1
        calls = recorder.points("paradigm.cs.calls")
        assert calls[-1][1] == 3.0
        assert "host.request_rtt.p50" in recorder.series_names()

    def test_world_series_include_topology_counters(self):
        # net.topo.* live in network.cache_info(), not the registry;
        # the World wires them in via the recorder's extra probe.
        world, recorder = self.small_world(cadence=0.005)
        names = recorder.series_names()
        assert "net.topo.epoch" in names
        assert "net.topo.hits" in names

    def test_capture_takes_terminal_sample_and_embeds_series(self):
        world, recorder = self.small_world(cadence=1000.0)
        report = RunReport.capture("t", world)
        # Terminal sweep: last point stamped at end-of-run time.
        assert recorder.points("paradigm.cs.calls")[-1] == (world.now, 3.0)
        assert report.series["cadence"] == 1000.0
        series = report.series["series"]["paradigm.cs.calls"]
        assert series["values"][-1] == 3.0
        restored = RunReport.from_json(report.to_json())
        assert restored.series == report.series

    def test_report_without_recorder_has_no_series(self):
        world = World(seed=1)
        report = RunReport.capture("t", world)
        assert report.series is None
        assert RunReport.from_json(report.to_json()).series is None
