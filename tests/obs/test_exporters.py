"""Round-trip tests for the JSONL and Prometheus exporters."""

from repro.obs import (
    SpanTracer,
    metrics_to_prometheus,
    parse_prometheus,
    sanitize_metric_name,
    spans_from_jsonl,
    spans_to_jsonl,
    write_text,
)
from repro.sim import MetricsRegistry


class TestSpanJsonl:
    def test_round_trip_preserves_tree_shape(self):
        clock = {"now": 0.0}
        tracer = SpanTracer(now=lambda: clock["now"])
        root = tracer.start("root", "a", key="v")
        child = tracer.start("child", "b", parent=root)
        clock["now"] = 1.0
        tracer.finish(child)
        clock["now"] = 2.0
        tracer.finish(root)
        restored = spans_from_jsonl(spans_to_jsonl(tracer.finished_spans()))
        assert len(restored) == 2
        by_name = {span.name: span for span in restored}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["root"].attributes == {"key": "v"}
        assert by_name["root"].end == 2.0
        assert by_name["child"].trace_id == by_name["root"].trace_id

    def test_unfinished_span_round_trips(self):
        tracer = SpanTracer(now=lambda: 0.0)
        span = tracer.start("open", "a")
        (restored,) = spans_from_jsonl(spans_to_jsonl([span]))
        assert not restored.finished


class TestPrometheus:
    def test_sanitize(self):
        assert sanitize_metric_name("net.bytes-sent") == "net_bytes_sent"
        assert sanitize_metric_name("99th") == "_99th"
        assert sanitize_metric_name("a:b_c") == "a:b_c"

    def test_export_and_parse(self):
        registry = MetricsRegistry()
        registry.counter("net.messages").increment(3)
        registry.gauge("host.neighbors").set(2)
        registry.gauge("host.neighbors").set(5)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("cs.call_seconds").observe(value)
        registry.series("battery").record(0.0, 90.0)
        text = metrics_to_prometheus(registry)
        assert "# TYPE repro_net_messages counter" in text
        samples = parse_prometheus(text)
        flat = ()
        assert samples[("repro_net_messages", flat)] == 3.0
        assert samples[("repro_host_neighbors", flat)] == 5.0
        assert samples[("repro_host_neighbors_min", flat)] == 2.0
        assert samples[("repro_host_neighbors_max", flat)] == 5.0
        assert samples[("repro_cs_call_seconds_count", flat)] == 4.0
        assert samples[("repro_cs_call_seconds_sum", flat)] == 10.0
        key = ("repro_cs_call_seconds", (("quantile", "0.5"),))
        assert samples[key] == 2.5
        assert samples[("repro_battery", flat)] == 90.0

    def test_labeled_children_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("net.bytes").increment(7)
        registry.counter("net.bytes", labels={"node": "a"}).increment(5)
        registry.counter("net.bytes", labels={"node": "b"}).increment(2)
        registry.histogram(
            "net.latency", labels={"node": "a"}
        ).observe(1.5)
        text = metrics_to_prometheus(registry)
        samples = parse_prometheus(text)
        # The flat total includes forwarded child increments.
        assert samples[("repro_net_bytes", ())] == 14.0
        assert samples[("repro_net_bytes", (("node", "a"),))] == 5.0
        assert samples[("repro_net_bytes", (("node", "b"),))] == 2.0
        assert samples[("repro_net_latency_count", (("node", "a"),))] == 1.0
        quantile_key = (
            "repro_net_latency",
            (("node", "a"), ("quantile", "0.5")),
        )
        assert samples[quantile_key] == 1.5

    def test_empty_registry(self):
        assert metrics_to_prometheus(MetricsRegistry()) == ""

    def test_write_text(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        registry = MetricsRegistry()
        registry.counter("c").increment()
        write_text(path, metrics_to_prometheus(registry))
        with open(path) as handle:
            content = handle.read()
        assert content.endswith("\n")
        assert parse_prometheus(content)[("repro_c", ())] == 1.0
