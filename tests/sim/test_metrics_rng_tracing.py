"""Unit tests for metrics, RNG streams, and tracing."""

import pytest

from repro.sim import MetricsRegistry, RandomStreams, TraceLog, derive_seed
from repro.sim.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("bytes")
        counter.increment(10)
        counter.increment()
        assert counter.value == 11

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("bytes").increment(-1)


class TestGauge:
    def test_tracks_last_min_max(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.set(2)
        gauge.add(1)
        assert gauge.value == 3
        assert gauge.max == 5
        assert gauge.min == 2

    def test_never_set_gauge_has_sane_extremes(self):
        gauge = Gauge("depth")
        assert gauge.value == 0.0
        assert gauge.min == 0.0  # not +inf
        assert gauge.max == 0.0  # not -inf
        assert not gauge.touched

    def test_touched_after_set(self):
        gauge = Gauge("depth")
        gauge.set(-3)
        assert gauge.touched
        assert gauge.min == -3
        assert gauge.max == -3

    def test_p50_is_median_of_written_values(self):
        gauge = Gauge("depth")
        for value in [9.0, 1.0, 5.0]:
            gauge.set(value)
        assert gauge.p50 == 5.0
        gauge.set(2.0)
        gauge.set(3.0)  # history [1, 2, 3, 5, 9]
        assert gauge.p50 == 3.0
        assert gauge.quantile(0.0) == 1.0
        assert gauge.quantile(1.0) == 9.0

    def test_p50_of_never_set_gauge_is_zero(self):
        assert Gauge("depth").p50 == 0.0


class TestHistogram:
    def test_mean_and_quantiles(self):
        histogram = Histogram("latency")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.median == 2.5
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 4.0

    def test_empty_histogram_is_safe(self):
        histogram = Histogram("latency")
        assert histogram.mean == 0.0
        assert histogram.median == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)

    def test_single_sample(self):
        histogram = Histogram("x")
        histogram.observe(7.0)
        assert histogram.quantile(0.3) == 7.0

    def test_p99(self):
        histogram = Histogram("x")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.p99 == 99.01

    def test_lazy_sort_interleaved_queries(self):
        # Queries between observations must always see sorted data.
        histogram = Histogram("x")
        histogram.observe(5.0)
        histogram.observe(1.0)
        assert histogram.min == 1.0
        histogram.observe(0.5)
        assert histogram.min == 0.5
        assert histogram.max == 5.0
        assert histogram.median == 1.0

    def test_p50_aliases_median(self):
        histogram = Histogram("x")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.p50 == histogram.median == 2.5

    def test_observation_order_survives_quantile_queries(self):
        # samples_since hands out insertion-order windows; the lazy
        # sorted copy must never reorder the observation buffer.
        histogram = Histogram("x")
        histogram.observe(5.0)
        histogram.observe(1.0)
        assert histogram.median == 3.0  # forces a sort
        histogram.observe(2.0)
        assert histogram.samples_since(0) == [5.0, 1.0, 2.0]
        assert histogram.samples_since(2) == [2.0]
        assert histogram.samples_since(3) == []


class TestRegistry:
    def test_lazily_creates_and_caches(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")

    def test_snapshot_flattens(self):
        registry = MetricsRegistry()
        registry.counter("sent").increment(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["sent"] == 3
        assert snapshot["depth"] == 2
        assert snapshot["lat.count"] == 1

    def test_snapshot_gauge_extremes_and_p99(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4)
        registry.gauge("depth").set(1)
        for value in range(1, 101):
            registry.histogram("lat").observe(float(value))
        snapshot = registry.snapshot()
        assert snapshot["depth.min"] == 1.0
        assert snapshot["depth.max"] == 4.0
        assert snapshot["lat.p99"] == 99.01

    def test_snapshot_exposes_p50_and_extremes(self):
        registry = MetricsRegistry()
        for value in (4.0, 1.0, 2.0):
            registry.gauge("depth").set(value)
        for value in range(1, 101):
            registry.histogram("lat").observe(float(value))
        snapshot = registry.snapshot()
        assert snapshot["depth.p50"] == 2.0
        assert snapshot["lat.p50"] == 50.5
        assert snapshot["lat.p50"] == snapshot["lat.median"]
        assert snapshot["lat.min"] == 1.0
        assert snapshot["lat.max"] == 100.0

    def test_snapshot_untouched_gauge_is_zero(self):
        registry = MetricsRegistry()
        registry.gauge("depth")
        snapshot = registry.snapshot()
        assert snapshot["depth.min"] == 0.0
        assert snapshot["depth.max"] == 0.0

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        assert registry.names() == ["a", "z"]


class TestRandomStreams:
    def test_same_name_same_sequence(self):
        a = RandomStreams(42).stream("arrivals")
        b = RandomStreams(42).stream("arrivals")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        streams = RandomStreams(42)
        a = streams.stream("arrivals")
        b = streams.stream("mobility")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(2).stream("x")
        assert a.random() != b.random()

    def test_stream_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")
        assert "x" in streams

    def test_spawn_is_independent(self):
        root = RandomStreams(7)
        child = root.spawn("experiment-1")
        assert child.stream("x").random() != root.stream("x").random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestTraceLog:
    def test_emit_and_select(self):
        log = TraceLog()
        log.emit(1.0, "host-a", "msg.send", size=100)
        log.emit(2.0, "host-b", "msg.recv", size=100)
        log.emit(3.0, "host-a", "msg.send", size=50)
        assert log.count("msg.send") == 2
        assert log.count("msg.recv") == 1
        assert log.count("never") == 0

    def test_bounded_ring(self):
        from repro.obs.health import FlightRecorder

        log = TraceLog()
        log.flight = FlightRecorder(capacity=3)
        for index in range(5):
            log.emit(float(index), "s", "k", i=index)
        # The flight recorder keeps only the last three; the count sees all five.
        assert [event["time"] for event in log.flight.snapshot("s")] == [2.0, 3.0, 4.0]
        assert log.count("k") == 5

    def test_disabled_still_counts(self):
        log = TraceLog()
        assert log.flight is None
        for index in range(5):
            log.emit(float(index), "s", "k")
        assert log.count("k") == 5
