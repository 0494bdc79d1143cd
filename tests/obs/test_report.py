"""RunReport: schema stability, round trips, and capture."""

import json

from repro.core import World, mutual_trust, standard_host
from repro.net import Position, WIFI_ADHOC
from repro.obs import SCHEMA_KEYS, SCHEMA_VERSION, RunReport, SimProfiler


def small_run():
    world = World(seed=3, trace_enabled=True)
    world.transport._rng.random = lambda: 0.999
    profiler = world.profile()
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
    profiler.detach()
    return world, profiler


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
            "profile",
            "spans",
            "series",
            "nodes",
            "health",
            "flight",
        )

    def test_report_dict_matches_schema(self):
        world, profiler = small_run()
        report = RunReport.capture("t", world, profiler=profiler)
        data = report.to_dict()
        assert tuple(sorted(data)) == tuple(sorted(SCHEMA_KEYS))
        assert data["schema"] == SCHEMA_VERSION

    def test_json_is_parseable_and_sorted(self):
        report = RunReport("t", metrics={"b": 2.0, "a": 1.0})
        data = json.loads(report.to_json())
        assert list(data) == sorted(SCHEMA_KEYS)


class TestCapture:
    def test_capture_snapshots_world(self):
        world, profiler = small_run()
        report = RunReport.capture(
            "cs-demo", world, profiler=profiler, params={"calls": 3}
        )
        assert report.env["seed"] == 3
        assert report.env["nodes"] == 2
        assert report.env["sim_time"] == world.now
        assert report.params == {"calls": 3}
        assert report.metrics["paradigm.cs.calls"] == 3
        assert report.kind_counts  # trace was enabled
        assert report.profile["events_processed"] > 0
        assert report.spans

    def test_span_trees_from_report(self):
        world, profiler = small_run()
        report = RunReport.capture("t", world, profiler=profiler)
        trees = report.complete_trees()
        assert len(trees) == 3  # one per CS call
        assert all(tree.span.name == "cs.call" for tree in trees)


class TestRoundTrip:
    def test_json_round_trip(self):
        world, profiler = small_run()
        original = RunReport.capture("t", world, profiler=profiler)
        restored = RunReport.from_json(original.to_json())
        assert restored.to_dict() == original.to_dict()

    def test_file_round_trip(self, tmp_path):
        world, _profiler = small_run()
        original = RunReport.capture("t", world)
        path = str(tmp_path / "report.json")
        original.write(path)
        restored = RunReport.load(path)
        assert restored.metrics == original.metrics
        assert restored.spans == original.spans

    def test_render_mentions_key_sections(self):
        world, profiler = small_run()
        report = RunReport.capture(
            "demo", world, profiler=profiler, params={"calls": 3}
        )
        text = report.render()
        assert "run report — demo" in text
        assert "metrics" in text
        assert "cs.call" in text  # the span tree
        assert "profile" in text
