"""Unit tests for causal spans and span trees."""

import pytest

from repro.obs import (
    NOOP_SPAN,
    STATUS_ERROR,
    STATUS_OK,
    FlightRecorder,
    SpanTracer,
    build_trees,
)
from repro.sim.tracing import TraceLog


def make_tracer(**kwargs):
    clock = {"now": 0.0}
    tracer = SpanTracer(now=lambda: clock["now"], **kwargs)
    return tracer, clock


class TestSpanLifecycle:
    def test_start_finish_records_interval(self):
        tracer, clock = make_tracer()
        span = tracer.start("op", "host-a", key="value")
        clock["now"] = 2.5
        tracer.finish(span)
        assert span.finished
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.status == STATUS_OK
        assert span.attributes == {"key": "value"}
        assert tracer.finished_spans() == [span]

    def test_finish_attributes_merge(self):
        tracer, clock = make_tracer()
        span = tracer.start("op", "a", first=1)
        tracer.finish(span, second=2)
        assert span.attributes == {"first": 1, "second": 2}

    def test_double_finish_is_idempotent(self):
        tracer, clock = make_tracer()
        span = tracer.start("op", "a")
        clock["now"] = 1.0
        tracer.finish(span)
        clock["now"] = 9.0
        tracer.finish(span)
        assert span.end == 1.0
        assert len(tracer) == 1

    def test_error_status(self):
        tracer, _clock = make_tracer()
        span = tracer.start("op", "a")
        tracer.finish(span, status=STATUS_ERROR, error="boom")
        assert span.status == STATUS_ERROR
        assert span.attributes["error"] == "boom"

    def test_counters_survive_ring_eviction(self):
        tracer, _clock = make_tracer(max_spans=2)
        for _ in range(5):
            tracer.finish(tracer.start("op", "a"))
        assert len(tracer) == 2
        assert tracer.started_total == 5
        assert tracer.finished_total == 5


class TestParentage:
    def test_child_of_span(self):
        tracer, _clock = make_tracer()
        parent = tracer.start("parent", "a")
        child = tracer.start("child", "a", parent=parent)
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id

    def test_child_of_wire_context(self):
        tracer, _clock = make_tracer()
        parent = tracer.start("parent", "a")
        context = tracer.context(parent)
        assert context == {"trace": parent.trace_id, "span": parent.span_id}
        child = tracer.start("child", "b", parent=context)
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id

    def test_roots_get_fresh_traces(self):
        tracer, _clock = make_tracer()
        first = tracer.start("a", "x")
        second = tracer.start("b", "x")
        assert first.trace_id != second.trace_id


class TestDisabledTracer:
    def test_start_returns_shared_noop(self):
        tracer, _clock = make_tracer(enabled=False)
        span = tracer.start("op", "a", key="value")
        assert span is NOOP_SPAN
        tracer.finish(span)
        assert len(tracer) == 0
        assert tracer.started_total == 0

    def test_noop_span_accumulates_nothing(self):
        tracer, _clock = make_tracer(enabled=False)
        span = tracer.start("op", "a", key="value")
        span.attributes["more"] = True
        assert NOOP_SPAN.attributes == {}

    def test_context_is_none(self):
        tracer, _clock = make_tracer(enabled=False)
        assert tracer.context(tracer.start("op", "a")) is None


class TestTraceLogMirror:
    def test_finished_span_mirrored(self):
        log = TraceLog()
        log.flight = FlightRecorder(capacity=4)
        clock = {"now": 0.0}
        tracer = SpanTracer(now=lambda: clock["now"], trace=log)
        span = tracer.start("op", "host-a")
        clock["now"] = 1.5
        tracer.finish(span)
        assert log.count("span") == 1
        (event,) = log.flight.snapshot("host-a")
        assert event["time"] == 1.5
        assert event["kind"] == "span"
        assert event["fields"]["name"] == "op"
        assert event["fields"]["span"] == span.span_id
        assert event["fields"]["duration"] == 1.5


class TestTrees:
    def test_build_and_walk(self):
        tracer, clock = make_tracer()
        root = tracer.start("root", "a")
        child = tracer.start("child", "a", parent=root)
        grandchild = tracer.start("grandchild", "b", parent=child)
        for span in (grandchild, child, root):
            tracer.finish(span)
        (tree,) = tracer.trees()
        assert tree.size == 3
        assert tree.complete()
        assert [name for name in ("root", "child", "grandchild")] == [
            span.name for _depth, span in tree.walk()
        ]
        assert [depth for depth, _span in tree.walk()] == [0, 1, 2]
        assert tree.find("grandchild") == [grandchild]

    def test_orphans_become_roots(self):
        tracer, _clock = make_tracer()
        parent = tracer.start("parent", "a")
        child = tracer.start("child", "a", parent=parent)
        tracer.finish(child)  # parent still active -> child is an orphan
        trees = tracer.trees()
        assert len(trees) == 1
        assert trees[0].span is child
        assert not trees[0].children

    def test_incomplete_tree_detected(self):
        tracer, _clock = make_tracer()
        root = tracer.start("root", "a")
        child = tracer.start("child", "a", parent=root)
        tracer.finish(root)  # child never finishes
        trees = build_trees(tracer.finished_spans() + [child])
        (tree,) = trees
        assert not tree.complete()

    def test_render_shows_names_and_status(self):
        tracer, clock = make_tracer()
        root = tracer.start("root", "a")
        clock["now"] = 1.0
        tracer.finish(root, status=STATUS_ERROR)
        (tree,) = tracer.trees()
        text = tree.render()
        assert "root [a]" in text
        assert "!error" in text


class TestDisabledHopStampFastPath:
    """The per-hop timestamps added for trace analytics must cost
    nothing when tracing is off: no ``delivered_at`` stamps on
    messages, no attribute writes surviving on the shared no-op span,
    no allocations in the stamping guard, and bit-identical runs."""

    @staticmethod
    def quiet_pair():
        from repro.core import World, mutual_trust, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=9)  # tracing (and spans) off by default
        world.transport._rng.random = lambda: 0.999
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
        mutual_trust(a, b)
        b.register_service("echo", lambda args, host: (args, 32))
        return world, a, b

    def test_delivered_at_not_stamped_when_disabled(self):
        from repro.net import Message

        world, a, b = self.quiet_pair()

        def go():
            message = Message(
                source="a", destination="b", kind="cs.request",
                payload={"service": "echo", "args": 1}, size_bytes=64,
            )
            reply = yield from a.request(message, timeout=30.0)
            return reply

        process = world.env.process(go())
        reply = world.run(until=process)
        assert reply.delivered_at == 0.0
        assert world.tracer.started_total == 0

    def test_delivered_at_stamped_when_enabled(self):
        from repro.net import Message

        world, a, b = self.quiet_pair()
        world.tracer.enabled = True

        def go():
            message = Message(
                source="a", destination="b", kind="cs.request",
                payload={"service": "echo", "args": 1}, size_bytes=64,
            )
            reply = yield from a.request(message, timeout=30.0)
            return reply

        process = world.env.process(go())
        reply = world.run(until=process)
        assert reply.delivered_at > 0.0

    def test_noop_span_sheds_stamp_writes(self):
        # The transport writes hop stamps through span.attributes; the
        # shared no-op span must shed them into a throwaway dict.
        NOOP_SPAN.attributes["t_air"] = 123.0
        NOOP_SPAN.attributes["t_sent"] = 456.0
        assert NOOP_SPAN.attributes == {}

    def test_disabled_stamp_path_is_allocation_free(self):
        import tracemalloc

        tracer, _clock = make_tracer(enabled=False)
        tracemalloc.start()
        for index in range(10_000):
            span = tracer.start(
                "net.transmit", "a", msg_id=index, attempt=1
            )
            if span is not NOOP_SPAN:
                span.attributes["t_air"] = 1.0
            tracer.finish(span)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(tracer) == 0
        assert peak < 4096, f"disabled stamping allocated {peak} bytes"

    def test_disabled_runs_stay_bit_identical(self):
        summaries = []
        for _ in range(2):
            world, a, b = self.quiet_pair()

            def go():
                for index in range(5):
                    yield from a.component("cs").call("b", "echo", index)

            process = world.env.process(go())
            world.run(until=process)
            summaries.append(world.summary())
        assert summaries[0] == summaries[1]
