"""Fleet health: SLO specs, the engine, the flight recorder, and the
armed-but-quiet bit-identity contract."""

import tracemalloc

import pytest

from repro.faults import run_chaos, standard_slos
from repro.obs import FlightRecorder, HealthEngine, SloSpec, worst_level
from repro.sim import MetricsRegistry, TraceLog


class TestSloSpec:
    def test_levels_above(self):
        slo = SloSpec(name="s", numerator="n", degraded=2.0, critical=5.0)
        assert slo.level(2.0) == "ok"  # strict: on-threshold stays ok
        assert slo.level(2.1) == "degraded"
        assert slo.level(5.0) == "degraded"
        assert slo.level(5.1) == "critical"

    def test_levels_below(self):
        slo = SloSpec(
            name="s",
            numerator="n",
            comparison="below",
            degraded=0.95,
            critical=0.5,
        )
        assert slo.level(0.95) == "ok"
        assert slo.level(0.9) == "degraded"
        assert slo.level(0.4) == "critical"

    def test_no_critical_threshold(self):
        slo = SloSpec(name="s", numerator="n", degraded=0.0)
        assert slo.level(1e9) == "degraded"

    def test_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="s", numerator="n", comparison="sideways")
        with pytest.raises(ValueError):
            SloSpec(name="s", numerator="n", window_s=0.0)
        with pytest.raises(ValueError):
            SloSpec(name="s", numerator="n", degraded=2.0, critical=1.0)
        with pytest.raises(ValueError):
            SloSpec(
                name="s",
                numerator="n",
                comparison="below",
                degraded=1.0,
                critical=2.0,
            )

    def test_as_dict_round_trips(self):
        slo = SloSpec(name="s", numerator="n", denominator="d", window_s=30.0)
        assert SloSpec(**slo.as_dict()) == slo

    def test_worst_level(self):
        assert worst_level([]) == "ok"
        assert worst_level(["ok", "degraded"]) == "degraded"
        assert worst_level(["critical", "ok"]) == "critical"


class TestFlightRecorder:
    def test_ring_keeps_last_n_per_source(self):
        flight = FlightRecorder(capacity=3)
        for index in range(10):
            flight.record(float(index), "a", "k", {"i": index})
        snapshot = flight.snapshot("a")
        assert [event["fields"]["i"] for event in snapshot] == [7, 8, 9]

    def test_sources_are_independent_and_bounded(self):
        flight = FlightRecorder(capacity=2, max_sources=2)
        flight.record(0.0, "a", "k", {})
        flight.record(0.0, "b", "k", {})
        flight.record(0.0, "c", "k", {})  # over max_sources: dropped
        assert flight.sources() == ["a", "b"]
        assert flight.dropped_sources == 1
        assert flight.snapshot("c") == []

    def test_snapshot_coerces_non_json_fields(self):
        flight = FlightRecorder()
        flight.record(1.0, "a", "k", {"obj": object(), "ok": True})
        (event,) = flight.snapshot("a")
        assert isinstance(event["fields"]["obj"], str)
        assert event["fields"]["ok"] is True

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_sources=0)

    def test_trace_log_feeds_flight_even_when_disabled(self):
        log = TraceLog(enabled=False)
        flight = FlightRecorder(capacity=4)
        log.flight = flight
        log.emit(1.0, "node-1", "net.send", bytes=64)
        assert len(log) == 0  # the log itself stayed off
        (event,) = flight.snapshot("node-1")
        assert event["kind"] == "net.send"
        assert event["fields"] == {"bytes": 64}

    def test_disabled_emit_without_flight_allocates_nothing(self):
        log = TraceLog(enabled=False)
        for _ in range(100):  # warm: bytecode caches, etc.
            log.emit(0.0, "a", "k", x=1)
        tracemalloc.start()
        for _ in range(10_000):
            log.emit(0.0, "a", "k", x=1)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Only the transient **fields dict per call — nothing retained,
        # so the high-water mark stays at a single call frame's worth.
        assert peak < 4096


def _engine(slos, **kwargs):
    registry = MetricsRegistry()
    return registry, HealthEngine(registry, slos, **kwargs)


class TestHealthEngine:
    def test_duplicate_slo_names_rejected(self):
        registry = MetricsRegistry()
        specs = [
            SloSpec(name="s", numerator="a"),
            SloSpec(name="s", numerator="b"),
        ]
        with pytest.raises(ValueError):
            HealthEngine(registry, specs)

    def test_transition_and_recovery_events(self):
        registry, engine = _engine(
            [SloSpec(name="errors", numerator="errs", degraded=0.0)]
        )
        errs = registry.counter("errs", labels={"node": "a"})
        engine.evaluate(0.0)
        assert engine.events == []
        errs.increment()
        engine.evaluate(5.0)
        errs.increment()  # still degraded: no new event
        engine.evaluate(10.0)
        assert [(e["from"], e["to"]) for e in engine.events] == [
            ("ok", "degraded")
        ]
        assert engine.node_states() == {"a": "degraded"}
        assert (
            registry.counter(
                "health.breaches", labels={"node": "a"}
            ).value
            == 1
        )

    def test_windowed_slo_recovers_when_burst_ages_out(self):
        registry, engine = _engine(
            [
                SloSpec(
                    name="burst",
                    numerator="errs",
                    window_s=10.0,
                    degraded=0.0,
                )
            ]
        )
        errs = registry.counter("errs", labels={"node": "a"})
        errs.increment(3)
        engine.evaluate(5.0)
        assert engine.node_states() == {"a": "degraded"}
        # No new errors: the burst leaves the trailing window.
        engine.evaluate(20.0)
        assert engine.node_states() == {"a": "ok"}
        assert [(e["from"], e["to"]) for e in engine.events] == [
            ("ok", "degraded"),
            ("degraded", "ok"),
        ]
        # Recovery is recorded but never instrumented.
        assert (
            registry.counter(
                "health.breaches", labels={"node": "a"}
            ).value
            == 1
        )

    def test_ratio_waits_for_min_denominator(self):
        registry, engine = _engine(
            [
                SloSpec(
                    name="rate",
                    numerator="errs",
                    denominator="calls",
                    degraded=0.1,
                    min_denominator=3.0,
                )
            ]
        )
        registry.counter("errs", labels={"node": "a"}).increment()
        registry.counter("calls", labels={"node": "a"}).increment()
        engine.evaluate(1.0)
        assert engine.node_states() == {}  # one-sample noise suppressed
        registry.counter("calls", labels={"node": "a"}).increment(3)
        engine.evaluate(2.0)
        assert engine.node_states() == {"a": "degraded"}

    def test_critical_breach_instruments_and_dumps_flight(self):
        flight = FlightRecorder()
        flight.record(1.0, "a", "net.send", {"bytes": 9})
        registry = MetricsRegistry()
        engine = HealthEngine(
            registry,
            [
                SloSpec(
                    name="errors",
                    numerator="errs",
                    degraded=0.0,
                    critical=2.0,
                )
            ],
            flight=flight,
        )
        registry.counter("errs", labels={"node": "a"}).increment(5)
        engine.evaluate(3.0)
        assert engine.node_states() == {"a": "critical"}
        assert (
            registry.counter(
                "health.critical_breaches", labels={"node": "a"}
            ).value
            == 1
        )
        dump = engine.flight_dumps["a"]
        assert dump["slo"] == "errors"
        assert dump["level"] == "critical"
        assert dump["events"][0]["kind"] == "net.send"

    def test_flight_dump_once_per_node(self):
        flight = FlightRecorder()
        registry = MetricsRegistry()
        engine = HealthEngine(
            registry,
            [
                SloSpec(name="e1", numerator="errs", degraded=0.0),
                SloSpec(name="e2", numerator="errs", degraded=10.0),
            ],
            flight=flight,
        )
        registry.counter("errs", labels={"node": "a"}).increment(20)
        engine.evaluate(1.0)
        assert engine.flight_dumps["a"]["slo"] == "e1"
        assert len(engine.flight_dumps) == 1

    def test_event_cap(self):
        registry = MetricsRegistry()
        engine = HealthEngine(
            registry,
            [SloSpec(name="e", numerator="errs", degraded=0.0)],
            max_events=1,
        )
        errs_a = registry.counter("errs", labels={"node": "a"})
        errs_b = registry.counter("errs", labels={"node": "b"})
        errs_a.increment()
        errs_b.increment()
        engine.evaluate(1.0)
        assert len(engine.events) == 1
        assert engine.dropped_events == 1

    def test_evaluation_creates_no_metrics(self):
        registry, engine = _engine(
            [SloSpec(name="quiet", numerator="never.bumped", degraded=1e9)]
        )
        before = dict(registry.snapshot())
        engine.evaluate(1.0)
        engine.evaluate(2.0)
        assert dict(registry.snapshot()) == before
        assert not engine.breached

    def test_verdicts_and_as_dict(self):
        registry, engine = _engine(
            [SloSpec(name="e", numerator="errs", degraded=0.0)]
        )
        registry.counter("errs", labels={"node": "a"}).increment()
        engine.evaluate(1.0)
        data = engine.as_dict()
        assert data["verdicts"] == {"e": {"a": "degraded"}}
        assert data["states"] == {"a": "degraded"}
        assert data["evaluations"] == 1
        assert data["slos"][0]["name"] == "e"


class TestArmedRunBitIdentity:
    PARAMS = dict(clients=2, servers=1, requests_per_client=2)

    def test_quiet_slos_leave_run_bit_identical(self):
        quiet = [
            SloSpec(name="quiet", numerator="chaos.failed", degraded=1e9)
        ]
        plain = run_chaos(seed=3, sample_cadence=5.0, **self.PARAMS)
        armed = run_chaos(
            seed=3, sample_cadence=5.0, slos=quiet, **self.PARAMS
        )
        assert plain.summary == armed.summary
        assert plain.report == armed.report
        assert armed.report["health"] is None  # nothing ever breached

    def test_breaching_slos_change_only_health_families(self):
        plain = run_chaos(seed=3, sample_cadence=5.0, **self.PARAMS)
        armed = run_chaos(
            seed=3,
            sample_cadence=5.0,
            slos=standard_slos(),
            **self.PARAMS,
        )
        for key, value in plain.summary.items():
            if key.startswith("obs.labels"):
                continue  # breach counters register extra labeled series
            assert armed.summary[key] == value, key
        extra = set(armed.summary) - set(plain.summary)
        assert all(
            key.startswith(("health.", "obs.labels")) for key in extra
        ), extra
