"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


class TestCliInProcess:
    def test_assess_defaults(self, capsys):
        assert main(["assess"]) == 0
        out = capsys.readouterr().out
        assert "Paradigm assessment" in out
        assert "winner" in out

    def test_assess_flags_change_output(self, capsys):
        main(["assess", "--interactions", "1", "--code-bytes", "500000"])
        out = capsys.readouterr().out
        assert "n=1" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_knows_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "assess", "report", "compare", "trace", "health", "matrix",
        ):
            assert command in text

    def test_module_docstring_enumerates_all_commands(self):
        # The top-level --help body is the module docstring; every
        # registered subcommand must appear there.
        import repro.__main__ as cli

        parser = build_parser()
        actions = [
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        ]
        for command in actions[0].choices:
            assert f"``{command}``" in cli.__doc__, (
                f"subcommand {command!r} missing from CLI docs"
            )


class TestReportCliErrors:
    def test_unknown_name_exits_nonzero_with_message(self, capsys):
        assert main(["report", "no-such-report-anywhere"]) == 1
        err = capsys.readouterr().err
        assert "no report named" in err

    def test_corrupt_json_exits_nonzero_not_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        assert main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err

    def test_schema_mismatch_exits_nonzero(self, tmp_path, capsys):
        future = tmp_path / "future.json"
        future.write_text('{"schema": 99, "name": "x", "metrics": {}}')
        assert main(["report", str(future)]) == 1
        err = capsys.readouterr().err
        assert "newer than this code" in err

    def test_non_report_object_exits_nonzero(self, tmp_path, capsys):
        not_report = tmp_path / "list.json"
        not_report.write_text("[1, 2, 3]")
        assert main(["report", str(not_report)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section",
        [
            '"spans": {"a": 1}',
            '"series": [1, 2]',
            '"health": {"events": [{"time": 1.0, "node": "a"}]}',
            '"health": {"events": [], "verdicts": {"slo": 5}}',
            '"flight": {"n": 5}',
            '"flight": {"n": {"events": 5, "faults": []}}',
        ],
    )
    def test_malformed_section_exits_nonzero(self, tmp_path, capsys, section):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"schema": 3, "name": "x", "metrics": {}, ' + section + "}"
        )
        for command in ("report", "health"):
            assert main([command, str(bad)]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    def test_valid_report_still_renders(self, tmp_path, capsys):
        from repro.obs import RunReport

        path = str(tmp_path / "ok.json")
        RunReport("tiny", metrics={"a.b": 1.0}).write(path)
        assert main(["report", path]) == 0
        assert "run report — tiny" in capsys.readouterr().out


def _write_traced_report(path):
    """A tiny two-call traced run, captured as a full report."""
    from repro.core import World, mutual_trust, standard_host
    from repro.net import Position, WIFI_ADHOC
    from repro.obs import RunReport

    world = World(seed=3, trace_enabled=True)
    world.transport._rng.random = lambda: 0.999
    a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
    b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
    mutual_trust(a, b)
    b.register_service("echo", lambda args, host: (args, 32))

    def go():
        for index in range(2):
            yield from a.component("cs").call("b", "echo", index)

    process = world.env.process(go())
    world.run(until=process)
    world.run(until=world.now + 5.0)
    report = RunReport.capture("traced", world, created_at=world.env.now)
    report.write(str(path))
    return str(path)


class TestTraceCli:
    @pytest.fixture(scope="class")
    def traced_report(self, tmp_path_factory):
        return _write_traced_report(
            tmp_path_factory.mktemp("trace") / "traced.json"
        )

    def test_summary(self, traced_report, capsys):
        assert main(["trace", "summary", traced_report]) == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "trace.critical_path.p99" in out

    def test_summary_strict_passes_on_clean_run(self, traced_report, capsys):
        assert main(["trace", "summary", traced_report, "--strict"]) == 0

    def test_critical_path(self, traced_report, capsys):
        assert main(
            ["trace", "critical-path", traced_report, "--top", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "cs.call" in out
        assert "total" in out

    def test_slowest(self, traced_report, capsys):
        assert main(["trace", "slowest", traced_report, "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest invocations" in out

    def test_export_chrome_stdout(self, traced_report, capsys):
        import json

        assert main(["trace", "export", traced_report]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_export_chrome_to_file(self, traced_report, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(
            [
                "trace", "export", traced_report,
                "--format", "chrome", "--out", str(out_path), "--strict",
            ]
        ) == 0
        with open(out_path) as handle:
            document = json.load(handle)
        assert any(event["ph"] == "X" for event in document["traceEvents"])

    def test_export_is_written_atomically(
        self, traced_report, tmp_path, monkeypatch
    ):
        import json
        import os

        out_path = tmp_path / "trace.json"
        export = ["trace", "export", traced_report, "--out", str(out_path)]
        assert main(export) == 0
        written = out_path.read_text()
        assert json.loads(written)["traceEvents"]
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
        # Killed before the rename: the old export stays whole and no
        # temp file is left behind.
        out_path.write_text("old\n")

        def killed(*_args):
            raise OSError("killed")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError):
            main(export)
        assert out_path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_unknown_report_exits_nonzero(self, capsys):
        assert main(["trace", "summary", "no-such-report-anywhere"]) == 1
        assert "no report named" in capsys.readouterr().err

    def test_spanless_report_exits_nonzero(self, tmp_path, capsys):
        from repro.obs import RunReport

        path = str(tmp_path / "bare.json")
        RunReport("bare", metrics={"a": 1.0}).write(path)
        assert main(["trace", "summary", path]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_corrupt_json_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["trace", "summary", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestCliSubprocess:
    def test_module_entry_point(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "assess"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        assert "Paradigm assessment" in completed.stdout


class TestWorldSummary:
    def test_summary_combines_metrics_and_fleet(self):
        from repro.core import World, mutual_trust, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=3)
        world.transport._rng.random = lambda: 0.999
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
        mutual_trust(a, b)
        b.register_service("s", lambda args, host: (1, 100))

        def go():
            yield from a.component("cs").call("b", "s")

        process = world.env.process(go())
        world.run(until=process)
        world.run(until=world.now + 2.0)  # let ack bookkeeping settle
        summary = world.summary()
        assert summary["world.nodes"] == 2.0
        assert summary["fleet.bytes_sent"] > 0
        assert summary["fleet.bytes_sent"] == summary["fleet.bytes_received"]
        assert summary["paradigm.cs.calls"] == 1


class TestBatteryCrash:
    def test_flat_battery_takes_host_down(self):
        from repro.core import Battery, ContextMonitor, World, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=4)
        host = standard_host(
            world,
            "h",
            Position(0, 0),
            [WIFI_ADHOC],
            battery=Battery(capacity_joules=1.0, idle_watts=0.5),
        )
        ContextMonitor(host, interval=1.0, crash_on_empty_battery=True)
        world.run(until=10.0)
        assert host.battery.empty
        assert not host.node.up

    def test_without_flag_host_stays_up(self):
        from repro.core import Battery, ContextMonitor, World, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=4)
        host = standard_host(
            world,
            "h",
            Position(0, 0),
            [WIFI_ADHOC],
            battery=Battery(capacity_joules=1.0, idle_watts=0.5),
        )
        ContextMonitor(host, interval=1.0)
        world.run(until=10.0)
        assert host.battery.empty
        assert host.node.up


def _health_section(events, states):
    return {
        "slos": [{"name": "reachability"}],
        "states": states,
        "verdicts": {"reachability": dict(states)},
        "events": events,
        "dropped_events": 0,
        "evaluations": 7,
    }


def _transition(time, node, to, previous="ok"):
    return {
        "time": time, "node": node, "slo": "reachability",
        "from": previous, "to": to, "value": 3.0,
    }


def _write_health_report(path, health=None, flight=None):
    from repro.obs import RunReport

    RunReport("fleet", metrics={"a": 1.0}, health=health, flight=flight).write(
        str(path)
    )
    return str(path)


class TestHealthCli:
    def test_healthy_report_exits_zero(self, tmp_path, capsys):
        path = _write_health_report(
            tmp_path / "healthy.json",
            health=_health_section(
                [
                    _transition(4.0, "client-0", "degraded"),
                    _transition(9.0, "client-0", "ok", previous="degraded"),
                ],
                {"client-0": "ok"},
            ),
        )
        assert main(["health", path, "--strict"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet health — fleet\n")
        assert "1 slo(s), 7 sweeps, 2 transition(s)" in out
        assert "client-0  ok" in out

    def test_degraded_report_prints_states_timeline_and_flight(
        self, tmp_path, capsys
    ):
        path = _write_health_report(
            tmp_path / "degraded.json",
            health=_health_section(
                [_transition(12.5, "client-1", "degraded")],
                {"client-0": "ok", "client-1": "degraded"},
            ),
            flight={
                "client-1": {
                    "time": 12.5, "slo": "reachability",
                    "level": "degraded", "value": 3.0,
                    "events": [{"time": 12.0}, {"time": 12.5}],
                    "faults": [{"time": 11.0}],
                }
            },
        )
        assert main(["health", path, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "node states (worst across slos):" in out
        assert "~ client-1  degraded" in out
        assert "reachability: client-0=ok, client-1=degraded" in out
        assert "breach timeline (first 1 of 1):" in out
        assert "t=12.5" in out and "ok -> degraded (value=3)" in out
        assert "flight-recorder dumps (1 node(s)):" in out
        assert (
            "client-1: captured t=12.5 on slo=reachability -> degraded; "
            "2 event(s), 1 fault(s)"
        ) in out

    def test_critical_report_fails_strict(self, tmp_path, capsys):
        path = _write_health_report(
            tmp_path / "critical.json",
            health=_health_section(
                [_transition(3.0, "server-0", "critical")],
                {"server-0": "critical"},
            ),
        )
        assert main(["health", path]) == 0
        assert "! server-0  critical" in capsys.readouterr().out
        assert main(["health", path, "--strict"]) == 1
        err = capsys.readouterr().err
        assert "strict: critical breach — 1 critical transition(s)" in err
        assert "['server-0']" in err

    def test_report_without_health_prints_message(self, tmp_path, capsys):
        path = _write_health_report(tmp_path / "quiet.json")
        assert main(["health", path, "--strict"]) == 0
        assert "carries no health section" in capsys.readouterr().out

    def test_unknown_name_exits_nonzero(self, capsys):
        assert main(["health", "no-such-report-anywhere"]) == 1
        assert "no report named" in capsys.readouterr().err


class TestReportListing:
    @staticmethod
    def _package_with_a_report(tmp_path, monkeypatch):
        """Point the package-relative results directory at a temporary
        tree holding one valid report."""
        import repro.__main__ as cli
        from repro.obs import RunReport

        root = tmp_path / "package"
        results = root / "benchmarks" / "results"
        results.mkdir(parents=True)
        RunReport("elsewhere", metrics={"a.b": 1.0}).write(
            str(results / "elsewhere.json")
        )
        package = root / "src" / "repro"
        package.mkdir(parents=True)
        monkeypatch.setattr(cli, "__file__", str(package / "__main__.py"))

    def test_listing_reads_only_an_existing_local_results_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        self._package_with_a_report(tmp_path, monkeypatch)
        work = tmp_path / "work"
        (work / "benchmarks" / "results").mkdir(parents=True)
        monkeypatch.chdir(work)
        assert main(["report"]) == 1
        out = capsys.readouterr().out
        assert "no run reports found" in out
        assert "elsewhere" not in out
        # A name is looked up in the same one directory.
        assert main(["report", "elsewhere"]) == 1
        assert "no report named" in capsys.readouterr().err

    def test_listing_falls_back_to_the_package_results_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        self._package_with_a_report(tmp_path, monkeypatch)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["report"]) == 0
        assert "elsewhere" in capsys.readouterr().out
        assert main(["report", "elsewhere"]) == 0
        assert "run report — elsewhere" in capsys.readouterr().out

    @pytest.fixture
    def results(self, tmp_path, monkeypatch):
        directory = tmp_path / "benchmarks" / "results"
        directory.mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        return directory

    def test_lists_readable_reports(self, results, capsys):
        from repro.obs import RunReport

        RunReport(
            "alpha", env={"sim_time": 5.0}, metrics={"a": 1.0, "b": 2.0}
        ).write(str(results / "alpha.json"))
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "1 run report(s):" in out
        assert "alpha" in out and "sim_time=5.0 metrics=2 spans=0" in out

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"schema": 99, "name": "x"}',
            '{"schema": 3, "name": "x", "env": [1]}',
        ],
    )
    def test_unreadable_file_is_listed_not_raised(self, results, capsys, text):
        (results / "broken.json").write_text(text)
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "broken.json  [unreadable: " in out
