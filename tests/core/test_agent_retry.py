"""Agent retry schedules and the MA trip as one trace tree.

The schedule tests pin *when* each ``agent.migrate`` attempt starts:
a task agent's failed hop is retried 2 s and then 4 s after each
failure, and one whose home stays unreachable tries three times on
the same schedule before it gives up away from home.  The trace tests put an MA
invocation with failed hops through ``repro trace summary --strict``
and find the hop stalls in the ``retry`` bucket and the agent's hops
inside the ``ma.invoke`` tree.
"""

import pytest

from repro.__main__ import main
from repro.core import (
    TaskAgent,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
from repro.errors import WIRE_ERROR_KEY
from repro.faults import FaultPlan
from repro.faults.chaos import CHAOS_RETRY, build_fleet, chaos_task
from repro.net import Position, WIFI_ADHOC
from repro.obs import RunReport
from repro.obs.trace import TraceAnalysis
from tests.core.conftest import loss_free, run
from tests.core.test_paradigm_contract import make_world, square_task


def migrate_spans(world, to=None):
    """Finished ``agent.migrate`` spans (optionally to one host), by start."""
    spans = [
        span
        for span in world.tracer.finished_spans()
        if span.name == "agent.migrate"
        and (to is None or span.attributes.get("to") == to)
    ]
    return sorted(spans, key=lambda span: (span.start, span.span_id))


def gaps(spans):
    """Seconds from each attempt's end to the next attempt's start."""
    return [
        current.start - previous.end
        for previous, current in zip(spans, spans[1:])
    ]


def reroute_world():
    """The ``verify_agent_reroute`` shape (``tests/faults/invariants.py``)
    with tracing on.

    One client sends a task agent over two servers; the first server
    is down from 0 s to 5 s, so the first hop fails twice.
    """
    world = World(seed=3, trace_enabled=True)
    task = chaos_task()
    clients, servers = build_fleet(world, clients=1, servers=2, task=task)
    FaultPlan().crash([servers[0].id], at=0.0, down_s=5.0).inject(world)
    runtime = clients[0].component("agents")
    targets = [server.id for server in servers]
    results = run(world, runtime.invoke(task, targets, retry=CHAOS_RETRY))
    assert len(results) == len(targets)
    world.run(until=world.now + 30.0)
    return world, servers


class TestTaskAgentHopSchedule:
    def test_hop_retries_at_two_then_four_seconds(self):
        world, servers = reroute_world()
        hops = migrate_spans(world, to=servers[0].id)
        assert [span.status for span in hops] == ["error", "error", "ok"]
        assert gaps(hops) == pytest.approx([2.0, 4.0])
        assert world.metrics.counter("paradigm.ma.retries").value == 2


class TestTaskAgentHomeSchedule:
    def test_unreachable_home_makes_three_attempts_then_gives_up(self):
        world = loss_free(World(seed=42, trace_enabled=True))
        home = standard_host(world, "home", Position(0, 0), [WIFI_ADHOC])
        vendor = standard_host(world, "vendor", Position(20, 0), [WIFI_ADHOC])
        mutual_trust(home, vendor)

        def where(args, host):
            home.node.crash()  # the agent is away: its home goes down
            return host.id, 8

        vendor.register_service("where", where)
        agent_id = home.component("agents").launch(
            TaskAgent(), service="where", payload=None, targets=["vendor"]
        )

        def given_up():
            final = yield vendor.component("agents").completion(agent_id)
            return final, world.now

        final, ended_at = run(world, given_up())
        assert final["results"] == ["vendor"]
        assert "transfer to home failed" in final["error"][WIRE_ERROR_KEY]
        attempts = migrate_spans(world, to="home")
        assert len(attempts) == 3
        assert all(span.status == "error" for span in attempts)
        assert gaps(attempts) == pytest.approx([2.0, 4.0])
        # The agent ends as soon as its third attempt fails.
        assert ended_at == pytest.approx(attempts[-1].end)


def ma_invocation(analysis):
    """The one ``ma.invoke`` breakdown and its span tree."""
    (invocation,) = [
        inv for inv in analysis.invocations if inv.name == "ma.invoke"
    ]
    (tree,) = [
        tree for tree in analysis.trees
        if tree.span.trace_id == invocation.trace_id
        and tree.span.name == "ma.invoke"
    ]
    return invocation, [span for _depth, span in tree.walk()]


class TestMaTripInTrace:
    def test_failed_hops_land_in_retry_through_the_cli(self, tmp_path):
        world, _servers = reroute_world()
        path = str(tmp_path / "reroute.json")
        report = RunReport.capture("reroute", world)
        report.write(path)
        assert main(["trace", "summary", path, "--strict"]) == 0

        analysis = TraceAnalysis.from_report(report)
        invocation, tree = ma_invocation(analysis)
        assert invocation.retry == pytest.approx(6.0)
        assert invocation.transit > 0.0
        backoffs = [span for span in tree if span.name == "invoke.backoff"]
        retries = report.metrics["paradigm.ma.retries"]
        assert len(backoffs) == retries == 2
        trip = {span.span_id for span in tree if span.name == "agent.migrate"}
        assert trip == {span.span_id for span in migrate_spans(world)}
        assert len(trip) == 5

    def test_plain_ma_call_has_transit(self):
        world, device, server = make_world()
        world.tracer.enabled = True
        task = square_task()
        provision_task(server, task)
        result = run(world, device.component("agents").invoke(task, "server"))
        assert result == {"n": 9, "square": 81}
        world.run(until=world.now + 30.0)
        analysis = TraceAnalysis(world.tracer.finished_spans())
        invocation, tree = ma_invocation(analysis)
        assert invocation.transit > 0.0
        trip = {span.span_id for span in tree if span.name == "agent.migrate"}
        assert trip == {span.span_id for span in migrate_spans(world)}
        assert len(trip) == 2  # out to the server, then home
