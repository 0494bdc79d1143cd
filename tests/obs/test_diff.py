"""Report diffing: directions, thresholds, verdicts, CLI gate."""

import json
import os

import pytest

from repro.__main__ import main
from repro.obs import ReportSchemaError
from repro.obs.diff import (
    MetricDelta,
    diff_report_files,
    diff_reports,
    direction_of,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BASE = os.path.join(FIXTURES, "run_base.json")
REGRESSED = os.path.join(FIXTURES, "run_regressed.json")


class TestDirectionRegistry:
    def test_lower_better_patterns(self):
        for name in (
            "net.delivery_latency.p99",
            "cs.call_seconds.mean",
            "fleet.bytes_sent",
            "net.messages_lost",
            "agents.migration_failures",
            "security.rejections",
            "fleet.money",
            "overhead_ratio",
        ):
            assert direction_of(name) == "lower", name

    def test_higher_better_patterns(self):
        for name in (
            "speedup",
            "topo.hits",
            "cs.served",
            "net.messages_delivered",
            "net.broadcast_reach.mean",
        ):
            assert direction_of(name) == "higher", name

    def test_neutral_patterns(self):
        for name in (
            "world.now",
            "world.nodes",
            "net.delivery_latency.count",
            "topo.epoch",
            "topo.invalidations",
            "some.unknown.metric",
        ):
            assert direction_of(name) is None, name

    def test_count_carveout_beats_parent_direction(self):
        # A latency histogram's sample count is volume, not latency.
        assert direction_of("net.delivery_latency.count") is None
        assert direction_of("net.delivery_latency.p50") == "lower"

    def test_overrides_beat_patterns(self):
        assert direction_of("speedup", {"speedup": "lower"}) == "lower"
        assert direction_of("speedup", {"speedup": None}) is None


class TestMetricDelta:
    def test_regressed_lower_better(self):
        delta = MetricDelta("lat.p99", 2.0, 3.0, "lower", threshold=0.05)
        assert delta.verdict == "regressed"
        assert delta.relative == pytest.approx(0.5)

    def test_improved_higher_better(self):
        delta = MetricDelta("speedup", 10.0, 11.0, "higher", threshold=0.05)
        assert delta.verdict == "improved"

    def test_within_threshold_is_unchanged(self):
        delta = MetricDelta("lat.p99", 100.0, 104.9, "lower", threshold=0.05)
        assert delta.verdict == "unchanged"

    def test_neutral_direction_never_regresses(self):
        delta = MetricDelta("nodes", 10.0, 1000.0, None, threshold=0.05)
        assert delta.verdict == "changed"

    def test_from_zero_base(self):
        delta = MetricDelta("errors", 0.0, 3.0, "lower", threshold=0.05)
        assert delta.verdict == "regressed"
        assert delta.to_dict()["relative"] is None  # inf is not JSON

    def test_zero_to_zero_unchanged(self):
        delta = MetricDelta("errors", 0.0, 0.0, "lower", threshold=0.05)
        assert delta.verdict == "unchanged"


class TestDiffReports:
    def load(self, path):
        with open(path) as handle:
            return json.load(handle)

    def test_fixture_verdicts(self):
        diff = diff_reports(self.load(BASE), self.load(REGRESSED))
        by_name = {delta.name: delta.verdict for delta in diff.deltas}
        assert by_name == {
            "cs.served": "regressed",            # higher-better, -10%
            "fleet.bytes_sent": "regressed",     # lower-better, +20%
            "net.delivery_latency.p99": "regressed",  # lower-better, +50%
            "net.messages_lost": "unchanged",
            "speedup": "improved",               # higher-better, +10%
            "world.nodes": "changed",            # neutral
        }
        assert diff.verdict == "regression"
        assert diff.added == {"new.metric": 1.0}
        assert diff.removed == {}

    def test_threshold_widens_unchanged_band(self):
        diff = diff_reports(
            self.load(BASE), self.load(REGRESSED), threshold=0.60
        )
        assert diff.verdict == "ok"
        assert not diff.regressions

    def test_overrides_flip_a_gate(self):
        diff = diff_reports(
            self.load(BASE),
            self.load(REGRESSED),
            overrides={
                "cs.served": None,
                "fleet.bytes_sent": None,
                "net.delivery_latency.p99": "higher",
            },
        )
        assert diff.verdict == "ok"

    def test_bare_metric_mappings_diff_too(self):
        # Trajectory entries / hand-written baselines: just {name: value}.
        diff = diff_reports({"speedup": 5.0}, {"speedup": 300.0})
        assert diff.verdict == "ok"
        assert diff.improvements[0].name == "speedup"
        regressed = diff_reports({"speedup": 5.0}, {"speedup": 2.0})
        assert regressed.verdict == "regression"

    def test_deterministic_output(self):
        first = diff_reports(self.load(BASE), self.load(REGRESSED))
        second = diff_reports(self.load(BASE), self.load(REGRESSED))
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_params_mismatch_noted(self):
        diff = diff_reports(
            {"metrics": {"a": 1.0}, "params": {"quick": True}},
            {"metrics": {"a": 1.0}, "params": {"quick": False}},
        )
        assert any("params differ" in note for note in diff.notes)

    def test_to_dict_is_json_clean(self):
        diff = diff_reports(
            {"metrics": {"errors": 0.0}}, {"metrics": {"errors": 2.0}}
        )
        text = diff.to_json()
        assert "Infinity" not in text
        assert json.loads(text)["verdict"] == "regression"


class TestDiffFiles:
    def test_diff_report_files(self):
        diff = diff_report_files(BASE, REGRESSED)
        assert diff.base_name == "fixture_base"
        assert diff.new_name == "fixture_regressed"
        assert diff.verdict == "regression"

    def test_unreadable_file_raises_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReportSchemaError):
            diff_report_files(BASE, str(bad))

    def test_future_schema_raises(self, tmp_path):
        future = tmp_path / "future.json"
        future.write_text(json.dumps({"schema": 99, "metrics": {}}))
        with pytest.raises(ReportSchemaError, match="newer"):
            diff_report_files(BASE, str(future))


class TestCompareCli:
    def test_exit_one_on_regression_with_fail_on(self, capsys):
        assert main(["compare", BASE, REGRESSED, "--fail-on", "regress"]) == 1
        out = capsys.readouterr().out
        assert "net.delivery_latency.p99" in out
        assert "REGRESSION" in out

    def test_exit_zero_without_fail_on(self):
        assert main(["compare", BASE, REGRESSED]) == 0

    def test_exit_zero_on_identical_reports(self, capsys):
        assert main(["compare", BASE, BASE, "--fail-on", "regress"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["compare", BASE, REGRESSED, "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "regression"
        assert "net.delivery_latency.p99" in verdict["regressed"]

    def test_out_writes_verdict_file(self, tmp_path):
        out_path = tmp_path / "verdict.json"
        main(["compare", BASE, REGRESSED, "--out", str(out_path)])
        verdict = json.loads(out_path.read_text())
        assert verdict["base"] == "fixture_base"
        assert verdict["verdict"] == "regression"

    def test_out_is_written_atomically(self, tmp_path, monkeypatch):
        out_path = tmp_path / "verdict.json"
        assert main(["compare", BASE, REGRESSED, "--out", str(out_path)]) == 0
        written = out_path.read_text()
        assert json.loads(written)["verdict"] == "regression"
        assert [p.name for p in tmp_path.iterdir()] == ["verdict.json"]
        # Killed before the rename: the old verdict stays whole and no
        # temp file is left behind.
        def killed(*_args):
            raise OSError("killed")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError):
            main(["compare", BASE, BASE, "--out", str(out_path)])
        assert out_path.read_text() == written
        assert [p.name for p in tmp_path.iterdir()] == ["verdict.json"]

    def test_direction_override_flag(self):
        code = main(
            [
                "compare", BASE, REGRESSED, "--fail-on", "regress",
                "--threshold", "0.15",
                "--direction", "net.delivery_latency.p99=neutral",
                "--direction", "fleet.bytes_sent=neutral",
            ]
        )
        assert code == 0

    def test_bad_direction_spec_is_usage_error(self, capsys):
        code = main(["compare", BASE, REGRESSED, "--direction", "x=upward"])
        assert code == 2
        assert "direction" in capsys.readouterr().err

    def test_missing_report_exits_one(self, capsys):
        assert main(["compare", BASE, "definitely-not-a-report"]) == 1
        assert "no report named" in capsys.readouterr().err

    def test_corrupt_report_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compare", BASE, str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
