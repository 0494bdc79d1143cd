"""RunReport: schema stability, round trips, and capture."""

import json
import os

import pytest

from repro.__main__ import main
from repro.core import World, mutual_trust, standard_host
from repro.net import Position, WIFI_ADHOC
from repro.obs import (
    SCHEMA_KEYS,
    SCHEMA_VERSION,
    ReportSchemaError,
    RunReport,
    SpanTracer,
)

BASELINES = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "baselines"
)


def small_run():
    world = World(seed=3, trace_enabled=True)
    world.transport._rng.random = lambda: 0.999
    a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
    b = standard_host(world, "b", Position(20, 0), [WIFI_ADHOC])
    mutual_trust(a, b)
    b.register_service("echo", lambda args, host: (args, 16))

    def go():
        for index in range(3):
            yield from a.component("cs").call("b", "echo", index)

    process = world.env.process(go())
    world.run(until=process)
    world.run(until=world.now + 30.0)
    return world


class TestSchema:
    def test_schema_keys_are_stable(self):
        # The documented contract for external report consumers: these
        # exact top-level keys, nothing dropped or renamed.
        assert SCHEMA_KEYS == (
            "schema",
            "name",
            "created_at",
            "env",
            "params",
            "metrics",
            "kind_counts",
            "spans",
            "series",
            "nodes",
            "health",
            "flight",
        )

    def test_report_dict_matches_schema(self):
        world = small_run()
        report = RunReport.capture("t", world)
        data = report.to_dict()
        assert tuple(sorted(data)) == tuple(sorted(SCHEMA_KEYS))
        assert data["schema"] == SCHEMA_VERSION

    def test_json_is_parseable_and_sorted(self):
        report = RunReport("t", metrics={"b": 2.0, "a": 1.0})
        data = json.loads(report.to_json())
        assert list(data) == sorted(SCHEMA_KEYS)


class TestCapture:
    def test_capture_snapshots_world(self):
        world = small_run()
        report = RunReport.capture("cs-demo", world, params={"calls": 3})
        assert report.env["seed"] == 3
        assert report.env["nodes"] == 2
        assert report.env["sim_time"] == world.now
        assert report.params == {"calls": 3}
        assert report.metrics["paradigm.cs.calls"] == 3
        assert report.kind_counts  # trace was enabled
        assert report.spans

    def test_span_trees_from_report(self):
        world = small_run()
        report = RunReport.capture("t", world)
        trees = report.complete_trees()
        assert len(trees) == 3  # one per CS call
        assert all(tree.span.name == "cs.call" for tree in trees)


class TestRoundTrip:
    def test_json_round_trip(self):
        world = small_run()
        original = RunReport.capture("t", world)
        restored = RunReport.from_json(original.to_json())
        assert restored.to_dict() == original.to_dict()

    def test_file_round_trip(self, tmp_path):
        world = small_run()
        original = RunReport.capture("t", world)
        path = str(tmp_path / "report.json")
        original.write(path)
        restored = RunReport.load(path)
        assert restored.metrics == original.metrics
        assert restored.spans == original.spans

    def test_render_mentions_key_sections(self):
        world = small_run()
        report = RunReport.capture("demo", world, params={"calls": 3})
        text = report.render()
        assert "run report — demo" in text
        assert "metrics" in text
        assert "cs.call" in text  # the span tree


def round_trip_trees(spans):
    """Spans through a report's JSON and back, as span trees."""
    report = RunReport("t", spans=[span.to_dict() for span in spans])
    return RunReport.from_json(report.to_json()).span_trees()


class TestSpanRoundTrip:
    def test_round_trip_preserves_tree_shape(self):
        clock = {"now": 0.0}
        tracer = SpanTracer(now=lambda: clock["now"])
        root = tracer.start("root", "a", key="v")
        child = tracer.start("child", "b", parent=root)
        clock["now"] = 1.0
        tracer.finish(child)
        clock["now"] = 2.0
        tracer.finish(root)
        (tree,) = round_trip_trees(tracer.finished_spans())
        assert tree.complete()
        assert tree.span.name == "root"
        assert tree.span.attributes == {"key": "v"}
        assert tree.span.end == 2.0
        (branch,) = tree.children
        assert branch.span.name == "child"
        assert branch.span.parent_id == tree.span.span_id
        assert branch.span.trace_id == tree.span.trace_id

    def test_unfinished_span_round_trips(self):
        tracer = SpanTracer(now=lambda: 0.0)
        span = tracer.start("open", "a")
        (tree,) = round_trip_trees([span])
        assert not tree.span.finished
        assert not tree.complete()


#: Sections ``validate`` must refuse with a one-line reason.
MALFORMED = {
    "spans-object": {"spans": {"a": 1}},
    "spans-not-objects": {"spans": [1, 2]},
    "spans-missing-keys": {"spans": [{"trace_id": 1, "span_id": 1}]},
    "series-list": {"series": [1, 2]},
}


class TestMalformedSections:
    @pytest.mark.parametrize("key", sorted(MALFORMED))
    def test_load_checked_raises_schema_error(self, tmp_path, key):
        document = {"schema": 3, "name": "x", "metrics": {}, **MALFORMED[key]}
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ReportSchemaError) as raised:
            RunReport.load_checked(str(path))
        message = str(raised.value)
        assert "\n" not in message
        assert key.split("-")[0] in message

    def test_empty_and_null_sections_still_load(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps({"schema": 3, "name": "x", "spans": [], "series": None})
        )
        assert RunReport.load_checked(str(path)).spans == []


#: A ``profile`` section in the shape reports carried while the kernel
#: had a wall-clock profiler; loading ignores it.
OLD_PROFILE = {
    "wall_seconds": 0.0123,
    "events_processed": 42,
    "by_label": [
        {"label": "send", "count": 30, "seconds": 0.008},
        {"label": "dispatch", "count": 12, "seconds": 0.003},
    ],
    "hottest_events": [
        {"kind": "Timeout", "count": 30, "seconds": 0.009},
        {"kind": "Process", "count": 12, "seconds": 0.002},
    ],
}


class TestOldReportsLoad:
    @pytest.fixture(params=["v3-with-profile", "v2-baseline"])
    def old_report(self, request, tmp_path):
        if request.param == "v2-baseline":
            return os.path.join(BASELINES, "e8_security.json")
        data = RunReport.capture("old", small_run()).to_dict()
        data["profile"] = OLD_PROFILE
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_loads_and_rewrites_without_profile(self, old_report, tmp_path):
        with open(old_report) as handle:
            assert "profile" in json.load(handle)
        report = RunReport.load_checked(old_report)
        rewritten = tmp_path / "rewritten.json"
        report.write(str(rewritten))
        data = json.loads(rewritten.read_text())
        assert "profile" not in data
        assert sorted(data) == sorted(SCHEMA_KEYS)
        assert data["metrics"] == report.metrics

    def test_renders_through_the_cli(self, old_report, capsys):
        assert main(["report", old_report]) == 0
        assert capsys.readouterr().out.startswith("run report — ")

    def test_diffs_through_the_cli(self, old_report, capsys):
        assert main(["compare", old_report, old_report]) == 0
        assert capsys.readouterr().err == ""
