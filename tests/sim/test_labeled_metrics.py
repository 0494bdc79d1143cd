"""Labeled metric families: forwarding, cardinality bounds, decimation."""

import pytest

from repro.sim import MetricsRegistry
from repro.sim.metrics import (
    DEFAULT_LABEL_CAPACITY,
    OVERFLOW_LABEL,
    Histogram,
    labeled_name,
    rollup_by_label,
    split_labeled,
)


class TestLabeledNames:
    def test_labeled_name_sorts_keys(self):
        assert (
            labeled_name("net.bytes", {"node": "a", "link": "wifi"})
            == 'net.bytes{link="wifi",node="a"}'
        )

    def test_split_labeled_round_trip(self):
        name = labeled_name("net.bytes", {"node": "a"})
        base, labels = split_labeled(name)
        assert base == "net.bytes"
        assert labels == {"node": "a"}

    def test_split_labeled_flat_name(self):
        base, labels = split_labeled("net.bytes")
        assert base == "net.bytes"
        assert labels is None

    def test_escaping_round_trips(self):
        ugly = 'no"de\\with\nweird'
        name = labeled_name("m", {"node": ugly})
        _base, labels = split_labeled(name)
        assert labels == {"node": ugly}

    def test_split_labeled_keeps_stat_suffix(self):
        base, labels = split_labeled('host.rtt{node="a"}.p95')
        assert base == "host.rtt.p95"
        assert labels == {"node": "a"}


class TestForwarding:
    def test_counter_child_forwards_to_flat_parent(self):
        registry = MetricsRegistry()
        registry.counter("net.msgs").increment(1)
        registry.counter("net.msgs", labels={"node": "a"}).increment(2)
        registry.counter("net.msgs", labels={"node": "b"}).increment(3)
        assert registry.counter("net.msgs").value == 6
        assert registry.counter("net.msgs", labels={"node": "a"}).value == 2

    def test_histogram_child_forwards_observations(self):
        registry = MetricsRegistry()
        registry.histogram("rtt", labels={"node": "a"}).observe(1.0)
        registry.histogram("rtt", labels={"node": "b"}).observe(3.0)
        parent = registry.histogram("rtt")
        assert parent.count == 2
        assert parent.total == 4.0

    def test_gauge_child_forwards_sets(self):
        registry = MetricsRegistry()
        registry.gauge("load", labels={"node": "a"}).set(5.0)
        assert registry.gauge("load").value == 5.0

    def test_children_appear_in_snapshot_under_labeled_keys(self):
        registry = MetricsRegistry()
        registry.counter("net.msgs", labels={"node": "a"}).increment()
        snapshot = registry.snapshot()
        assert snapshot['net.msgs{node="a"}'] == 1.0
        assert snapshot["net.msgs"] == 1.0  # forwarded flat total

    def test_same_labels_return_same_child(self):
        registry = MetricsRegistry()
        first = registry.counter("c", labels={"node": "a"})
        second = registry.counter("c", labels={"node": "a"})
        assert first is second

    def test_labeled_children_accessor(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"node": "b"}).increment(2)
        registry.counter("c", labels={"node": "a"}).increment(1)
        children = registry.labeled_children("c")
        assert sorted(children) == ["a", "b"]
        assert children["b"].value == 2

    def test_labeled_children_creates_nothing(self):
        registry = MetricsRegistry()
        assert registry.labeled_children("never.created") == {}
        assert "never.created" not in registry.snapshot()


class TestCardinality:
    def test_overflow_folds_into_other(self):
        registry = MetricsRegistry(label_capacity=2)
        for node in ("a", "b", "c", "d"):
            registry.counter("c", labels={"node": node}).increment()
        children = registry.labeled_children("c")
        assert sorted(children) == sorted(["a", "b", OVERFLOW_LABEL])
        assert children[OVERFLOW_LABEL].value == 2
        assert registry.counter("c").value == 4  # flat total intact

    def test_overflow_counted_once_per_distinct_series(self):
        registry = MetricsRegistry(label_capacity=1)
        registry.counter("c", labels={"node": "a"}).increment()
        for _ in range(3):
            registry.counter("c", labels={"node": "b"}).increment()
        registry.counter("c", labels={"node": "z"}).increment()
        assert registry.counter("obs.labels.overflow").value == 2

    def test_overflow_folds_per_label_name_set(self):
        registry = MetricsRegistry(label_capacity=1)
        registry.counter("c", labels={"node": "a"}).increment()
        registry.counter("c", labels={"node": "b"}).increment()
        for _ in range(2):
            registry.counter("c", labels={"node": "b", "link": "wifi"}).increment()
        registry.counter("c", labels={"link": "gprs", "node": "c"}).increment()
        snapshot = registry.snapshot()
        assert snapshot['c{node="__other__"}'] == 1
        assert snapshot['c{link="__other__",node="__other__"}'] == 3
        assert snapshot["c"] == 5
        assert registry.counter("obs.labels.overflow").value == 3
        assert registry.counter("obs.labels.series").value == 3

    def test_series_counter_tracks_created_children(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"node": "a"})
        registry.counter("c", labels={"node": "b"})
        registry.histogram("h", labels={"node": "a"})
        assert registry.counter("obs.labels.series").value == 3

    def test_label_cardinality(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"node": "a"})
        registry.counter("c", labels={"node": "b"})
        assert registry.label_cardinality("c") == 2
        assert registry.label_cardinality("missing") == 0

    def test_default_capacity(self):
        registry = MetricsRegistry()
        for index in range(DEFAULT_LABEL_CAPACITY + 10):
            registry.counter("c", labels={"node": f"n{index}"}).increment()
        children = registry.labeled_children("c")
        assert len(children) == DEFAULT_LABEL_CAPACITY + 1  # + __other__
        assert children[OVERFLOW_LABEL].value == 10


class TestRollup:
    def test_rollup_by_label_groups_per_node(self):
        registry = MetricsRegistry()
        registry.counter("net.msgs", labels={"node": "a"}).increment(2)
        registry.counter("net.msgs", labels={"node": "b"}).increment(5)
        registry.histogram("rtt", labels={"node": "a"}).observe(1.0)
        rollup = rollup_by_label(registry.snapshot())
        assert rollup["a"]["net.msgs"] == 2.0
        assert rollup["b"]["net.msgs"] == 5.0
        assert rollup["a"]["rtt.count"] == 1.0
        assert list(rollup) == sorted(rollup)

    def test_rollup_ignores_flat_metrics(self):
        rollup = rollup_by_label({"flat.metric": 1.0})
        assert rollup == {}


class TestDecimation:
    def test_exact_count_and_sum_survive_decimation(self):
        histogram = Histogram("h", max_samples=8)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.observed == 100
        assert histogram.count == 100
        assert histogram.total == sum(range(100))
        assert histogram.retained <= 8

    def test_retained_ordinals_are_stride_multiples(self):
        histogram = Histogram("h", max_samples=4)
        for value in range(40):
            histogram.observe(float(value))
        stride = histogram._stride
        assert stride > 1
        # Values equal their ordinal here, so the retained samples
        # must all sit on stride boundaries.
        assert all(int(v) % stride == 0 for v in histogram._samples)

    def test_decimation_is_deterministic(self):
        def run():
            histogram = Histogram("h", max_samples=16)
            for value in range(1000):
                histogram.observe(float(value * 7 % 101))
            return list(histogram._samples), histogram._stride

        assert run() == run()

    def test_quantiles_answer_over_subsample(self):
        histogram = Histogram("h", max_samples=8)
        for value in range(64):
            histogram.observe(float(value))
        assert 0.0 <= histogram.p50 <= 63.0
        assert histogram.mean == pytest.approx(31.5)  # exact despite cap

    def test_samples_since_uses_ordinals_across_decimation(self):
        histogram = Histogram("h", max_samples=8)
        for value in range(20):
            histogram.observe(float(value))
        window = histogram.samples_since(10)
        stride = histogram._stride
        # Only retained ordinals >= 10 qualify; with values == ordinals
        # the window content is directly checkable.
        assert window == [
            float(v) for v in range(0, 20, stride) if v >= 10
        ]
        assert histogram.samples_since(histogram.observed) == []

    def test_uncapped_samples_since_unchanged(self):
        histogram = Histogram("h")
        for value in range(5):
            histogram.observe(float(value))
        assert histogram.samples_since(3) == [3.0, 4.0]

    def test_gauge_cap(self):
        registry = MetricsRegistry(max_samples=8)
        gauge = registry.gauge("g")
        for value in range(100):
            gauge.set(float(value))
        assert gauge.value == 99.0  # latest value always exact
        assert gauge.observed == 100
        assert gauge.retained <= 8
        assert gauge.max <= 99.0

    def test_registry_threads_cap_to_labeled_children(self):
        registry = MetricsRegistry(max_samples=4)
        child = registry.histogram("h", labels={"node": "a"})
        for value in range(50):
            child.observe(float(value))
        assert child.retained <= 4
        assert registry.histogram("h").retained <= 4

    def test_max_samples_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_samples=1)
        with pytest.raises(ValueError):
            MetricsRegistry(label_capacity=0)
