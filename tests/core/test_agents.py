"""Unit tests for the mobile agent runtime."""

import pytest

from repro.core import (
    Agent,
    TaskAgent,
    World,
    mutual_trust,
    standard_host,
)
from repro.errors import MigrationError
from repro.net import LAN, Position, WIFI_ADHOC
from repro.security import QuotaGrant, SecurityPolicy
from tests.core.conftest import run


class Sitter(Agent):
    """Stays put, counts up, finishes."""

    def on_arrival(self, context):
        yield from context.execute(1000)
        self.state["count"] = int(self.state.get("count", 0)) + 1


class Hopper(Agent):
    """Migrates once to state['target'], then finishes there."""

    def on_arrival(self, context):
        if context.host_id != self.state["target"]:
            yield from context.migrate(str(self.state["target"]))
        self.state["arrived"] = context.host_id
        yield from context.execute(10)


class Suicidal(Agent):
    def on_arrival(self, context):
        yield from context.sleep(1.0)
        context.die()


class Greedy(Agent):
    def on_arrival(self, context):
        yield from context.execute(10_000_000_000)


class Buggy(Agent):
    def on_arrival(self, context):
        yield from context.sleep(0.1)
        raise RuntimeError("agent bug")


class TestLaunchAndCompletion:
    def test_local_completion(self, adhoc_pair):
        a, _ = adhoc_pair
        runtime = a.component("agents")
        agent = Sitter()
        agent_id = runtime.launch(agent)
        final = run(a.world, _await(runtime, agent_id))
        assert final["outcome"] == "completed"
        assert final["count"] == 1

    def test_launch_assigns_identity_and_home(self, adhoc_pair):
        a, _ = adhoc_pair
        runtime = a.component("agents")
        agent = Sitter()
        agent_id = runtime.launch(agent)
        assert agent.state["home"] == "a"
        assert agent_id.startswith("a-agent-")

    def test_completion_event_after_the_fact(self, adhoc_pair):
        a, _ = adhoc_pair
        runtime = a.component("agents")
        agent_id = runtime.launch(Sitter())
        a.world.run(until=10.0)
        final = run(a.world, _await(runtime, agent_id))
        assert final["outcome"] == "completed"

    def test_agent_death(self, adhoc_pair):
        a, _ = adhoc_pair
        runtime = a.component("agents")
        agent_id = runtime.launch(Suicidal())
        final = run(a.world, _await(runtime, agent_id))
        assert final["outcome"] == "died"

    def test_budget_violation_kills_agent(self, adhoc_pair):
        a, _ = adhoc_pair
        a.policy = SecurityPolicy(
            quota_grants={"*": QuotaGrant(work_units=100.0)}
        )
        runtime = a.component("agents")
        agent_id = runtime.launch(Greedy())
        final = run(a.world, _await(runtime, agent_id))
        assert final["outcome"] == "killed"
        assert _count(a, "security.sandbox_violations") == 1

    def test_agent_crash_contained(self, adhoc_pair):
        a, _ = adhoc_pair
        runtime = a.component("agents")
        agent_id = runtime.launch(Buggy())
        final = run(a.world, _await(runtime, agent_id))
        assert final["outcome"] == "crashed"
        assert _count(a, "security.sandbox_errors") == 1


class TestMigration:
    def test_migrates_and_completes_remotely(self, adhoc_pair):
        a, b = adhoc_pair
        agent = Hopper()
        agent_id = a.component("agents").launch(agent, target="b")
        final = run(a.world, _await(b.component("agents"), agent_id))
        assert final["outcome"] == "completed"
        assert final["arrived"] == "b"
        assert final["hops"] == 1

    def test_unreachable_target_strands_agent(self, world):
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        standard_host(world, "far", Position(5000, 0), [WIFI_ADHOC])
        agent_id = a.component("agents").launch(Hopper(), target="far")
        final = run(world, _await(a.component("agents"), agent_id))
        assert final["outcome"] == "stranded"

    def test_untrusting_host_refuses_agent(self, world):
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
        # b does NOT trust a.
        agent_id = a.component("agents").launch(Hopper(), target="b")
        final = run(world, _await(a.component("agents"), agent_id))
        assert final["outcome"] == "stranded"
        # b counts the refusal once its reliable ACK is through: it is
        # b's one capsule rejection, counted and traced on the host's
        # rejection path like any other.
        world.run(until=world.now + 10.0)
        assert _count(b, "security.rejections") == 1
        assert world.trace.count("host.capsule_rejected") == 1

    def test_a_refusal_counts_when_its_ack_cannot_be_sent(self, world):
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
        admit = b.admit_capsule

        def admit_after_a_crashes(capsule, operation):
            a.node.crash()  # the refusal ACK finds no route back
            return (yield from admit(capsule, operation))

        b.admit_capsule = admit_after_a_crashes
        a.component("agents").launch(Hopper(), target="b")
        world.run(until=120.0)
        assert _count(b, "security.rejections") == 1
        assert world.trace.count("host.capsule_rejected") == 1
        assert world.trace.count("host.handler_netfail") == 0

    def test_policy_can_refuse_agents(self, world):
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(
            world,
            "b",
            Position(10, 0),
            [WIFI_ADHOC],
            policy=SecurityPolicy(
                require_signatures=False,
                allowed_operations=frozenset({"install-code"}),
            ),
        )
        mutual_trust(a, b)
        agent_id = a.component("agents").launch(Hopper(), target="b")
        final = run(world, _await(a.component("agents"), agent_id))
        assert final["outcome"] == "stranded"

    def test_migration_to_self_is_an_error(self, adhoc_pair):
        a, _ = adhoc_pair

        class SelfHopper(Agent):
            def on_arrival(self, context):
                try:
                    yield from context.migrate(context.host_id)
                except MigrationError:
                    self.state["caught"] = True

        runtime = a.component("agents")
        agent_id = runtime.launch(SelfHopper())
        final = run(a.world, _await(runtime, agent_id))
        assert final["caught"] is True

    def test_migration_charges_bytes(self, adhoc_pair):
        a, b = adhoc_pair
        agent_id = a.component("agents").launch(Hopper(), target="b")
        run(a.world, _await(b.component("agents"), agent_id))
        assert a.node.costs.total_bytes_sent >= Hopper.code_size


class TestDeliveries:
    def test_deliver_reaches_host_runtime(self, adhoc_pair):
        a, b = adhoc_pair

        class Courier(Agent):
            def on_arrival(self, context):
                if context.host_id != "b":
                    yield from context.migrate("b")
                context.deliver(self.state["message"])
                yield from context.sleep(0)

        received = []
        b.component("agents").on_delivery(
            lambda agent, payload: received.append(payload)
        )
        agent_id = a.component("agents").launch(Courier(), message="hello b")
        run(a.world, _await(b.component("agents"), agent_id))
        assert received == ["hello b"]
        assert b.component("agents").deliveries == ["hello b"]


class TestTaskAgentItinerary:
    def _fleet(self, world, vendor_ids, prices):
        home = standard_host(world, "home", Position(0, 0), [WIFI_ADHOC, LAN])
        vendors = [
            standard_host(world, vendor_id, Position(0, 0), [LAN], fixed=True)
            for vendor_id in vendor_ids
        ]
        mutual_trust(home, *vendors)
        home.node.interface("lan").attach()  # docked: backbone reachable
        for vendor, price in zip(vendors, prices):
            vendor.register_service(
                "quote", lambda args, host, p=price: ((host.id, p), 16)
            )
        return home, vendors

    def test_visits_all_and_returns(self, world):
        home, vendors = self._fleet(world, ["v1", "v2", "v3"], [30, 10, 20])
        agent_id = home.component("agents").launch(
            TaskAgent(), service="quote", payload=None,
            targets=["v1", "v2", "v3"],
        )
        final = run(world, _await(home.component("agents"), agent_id))
        assert final["outcome"] == "completed"
        assert final["error"] is None
        assert final["results"] == [("v1", 30), ("v2", 10), ("v3", 20)]
        assert final["hops"] == 4  # three vendors + home


def _count(host, family):
    return host.world.metrics.counter(family, labels={"node": host.id}).value


def _await(runtime, agent_id):
    final = yield runtime.completion(agent_id)
    return final
