"""Recovery invariants and whole-run determinism under chaos.

These are the tier-1 robustness guarantees: a correct middleware stack
converges back to service after every recoverable fault, and the whole
chaotic trajectory is a pure function of the seed.
"""

import pytest

from repro.core import World
from repro.faults import (
    FaultPlan,
    chaos_job,
    hostile_job,
    run_chaos,
    run_hostile,
    verify_agent_reroute,
    verify_discovery_recovery,
    verify_local_degradation,
    verify_retry_convergence,
)

from .conftest import run


class TestRecoveryInvariants:
    def test_retries_converge_under_standard_plan(self):
        outcome = verify_retry_convergence(seed=11)
        assert outcome.completion_rate >= 0.95
        assert outcome.failed <= outcome.requests * 0.05

    def test_discovery_refinds_after_partition_heals(self):
        found = verify_discovery_recovery(seed=5)
        assert found == {"before": 1, "during": 0, "after": 1}

    def test_agent_rides_out_crashed_hop(self):
        outcome = verify_agent_reroute(seed=3)
        assert outcome["results"] == 2
        assert outcome["retries"] >= 1

    def test_selection_degrades_to_local_offline(self):
        assert verify_local_degradation(seed=2) == "local"

    def test_standard_plan_faults_all_fire(self):
        outcome = run_chaos(seed=7)
        summary = outcome.summary
        # Unconditional topology faults always fire...
        for name in (
            "faults.crash",
            "faults.restart",
            "faults.partition",
            "faults.heal",
            "faults.link_flap",
        ):
            assert summary.get(name, 0.0) >= 1.0, name
        # ...and the message windows demonstrably bit this workload.
        for name in (
            "faults.messages_dropped",
            "faults.messages_duplicated",
            "faults.messages_corrupted",
        ):
            assert summary.get(name, 0.0) >= 1.0, name


class TestStaleReplies:
    """The duplicate injector is the reproducer for the stale-reply bug:
    a late second copy of a reply must be discarded by correlation id,
    not crash dispatch or resolve a stranger's request."""

    def test_duplicate_reply_discarded_and_counted(self, world, adhoc_pair):
        a, b = adhoc_pair
        b.register_service("echo", lambda args, host: (args, 8))
        FaultPlan().duplicate(
            at=0.0, duration=60.0, rate=1.0, delay_s=0.5,
            message_kinds=("cs.reply",),
        ).inject(world)

        def scenario():
            first = yield from a.components["cs"].call(
                b.id, "echo", args="one", timeout=5.0
            )
            # Survive past the duplicate's arrival, then call again:
            # dispatch must still be alive and correlating correctly.
            yield world.env.timeout(2.0)
            second = yield from a.components["cs"].call(
                b.id, "echo", args="two", timeout=5.0
            )
            return first, second

        first, second = run(world, scenario())
        world.run(until=world.now + 2.0)
        assert (first, second) == ("one", "two")
        assert world.metrics.counter("host.stale_replies").value == 2
        assert world.metrics.counter("paradigm.cs.stale_replies").value == 2

    def test_discovery_replies_survive_duplication(self, world, adhoc_pair):
        a, b = adhoc_pair
        from repro.core.services import ServiceDescription

        b.components["discovery"].advertise(
            ServiceDescription(
                service_type="printer", provider=b.id, name="lobby"
            )
        )
        # Discovery replies are not request()-correlated; duplicating
        # them must not trip the stale-discard path.
        FaultPlan().duplicate(
            at=0.0, duration=60.0, rate=1.0, delay_s=0.2,
            message_kinds=("disc.reply",),
        ).inject(world)

        def scenario():
            found = yield from a.components["discovery"].find(
                "printer", use_cache=False
            )
            return found

        found = run(world, scenario())
        assert len(found) == 1
        assert world.metrics.counter("host.stale_replies").value == 0


class TestWholeRunDeterminism:
    """Same-seed chaos runs must be bit-identical — every field.

    ``run_chaos`` stamps ``created_at`` with sim-time, so the whole
    report document is a pure function of the seed; nothing needs to be
    stripped before comparing.
    """

    def test_same_seed_identical_run_reports(self):
        first = run_chaos(seed=17)
        second = run_chaos(seed=17)
        assert first.report == second.report
        assert first.summary == second.summary

    def test_created_at_is_sim_time(self):
        outcome = run_chaos(seed=17)
        assert outcome.report["created_at"] == outcome.duration_s

    def test_report_carries_chaos_metrics(self):
        report = run_chaos(seed=17).report
        metrics = report["metrics"]
        assert metrics["chaos.completion_rate"] >= 0.95
        assert "faults.crash" in metrics
        assert report["params"]["faults"] > 0


class TestFleetShapeValidation:
    """Bad fleet sizes fail up front with an error naming the size.

    Matrix params come from spec files and the CLI; without the check a
    serverless fleet fails deep inside the run with an unrelated error
    (a modulo by zero in the client driver, an index error building the
    default plan).  The check runs before any world is built.
    """

    BAD_SHAPES = [
        ({"servers": 0}, "servers"),
        ({"servers": -2}, "servers"),
        ({"clients": -1}, "clients"),
        ({"requests_per_client": -1}, "requests_per_client"),
    ]

    @pytest.mark.parametrize("scenario", [run_chaos, run_hostile])
    @pytest.mark.parametrize("shape,name", BAD_SHAPES)
    @pytest.mark.parametrize("empty_plan", [False, True])
    def test_bad_shape_raises_before_world(
        self, monkeypatch, scenario, shape, name, empty_plan
    ):
        def no_world(*args, **kwargs):
            raise AssertionError("a world was built for a bad fleet")

        monkeypatch.setattr("repro.faults.chaos.World", no_world)
        kwargs = dict(shape)
        if empty_plan:
            plan_keyword = "plan" if scenario is run_chaos else "hostile"
            kwargs[plan_keyword] = FaultPlan()
        with pytest.raises(ValueError, match=name):
            scenario(seed=1, **kwargs)

    @pytest.mark.parametrize("job", [chaos_job, hostile_job])
    def test_job_targets_validate_too(self, job):
        with pytest.raises(ValueError, match="servers"):
            job(0, plan="none", servers=0)

    def test_empty_fleet_still_runs(self):
        outcome = run_chaos(seed=1, clients=0, plan=FaultPlan())
        assert outcome.requests == 0
        assert outcome.completion_rate == 1.0


class TestUnreachableHappenings:
    """Every counted unreachable send is also a trace happening.

    The chaos workload sends reliably; the flight recorder and
    ``kind_counts`` see those sends only if the reliable path emits
    the ``net.unreachable`` happening next to the metric.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kind_count_matches_metric(self, seed):
        report = run_chaos(seed=seed).report
        counted = report["metrics"]["net.unreachable"]
        assert counted > 0
        assert report["kind_counts"]["net.unreachable"] == counted


class TestTraceSwitch:
    """``trace_enabled`` adds spans and touches nothing else.

    The switch only stores spans; each finished span is still emitted
    into the trace log, so the one kind-count difference is ``span``,
    and it agrees with both the report's spans and the tracer's total.
    """

    @pytest.mark.parametrize("scenario", [run_chaos, run_hostile])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_switch_adds_only_span_counts(self, monkeypatch, scenario, seed):
        worlds = []

        class RecordingWorld(World):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                worlds.append(self)

        monkeypatch.setattr("repro.faults.chaos.World", RecordingWorld)
        off = scenario(seed=seed).report
        on = scenario(seed=seed, trace_enabled=True).report
        assert "span" not in off["kind_counts"]
        assert off["spans"] == []
        spans = on["kind_counts"].pop("span")
        assert on["kind_counts"] == off["kind_counts"]
        assert spans == len(on["spans"]) == worlds[-1].tracer.finished_total
        assert spans > 0
