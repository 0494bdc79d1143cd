"""Guests on a host are preempted at their work quota.

A host runs every guest under its principal's
:class:`~repro.security.QuotaGrant`, and a charge that would cross the
grant's ``work_units`` never lands: the guest's metered work stops at
exactly the grant, both for a one-shot guest (``host.run_guest``) and
for an agent's stay (``AgentContext.execute``).  Only ``run_guest``
runs add ``security.*`` samples; a stay adds a violation at most.

Preemption is final for a stay too: an agent that catches its
violation is still killed, and it cannot migrate or clone away.
"""

import pytest

from repro.core import Agent, agents
from repro.errors import SandboxViolation
from repro.security import ExecutionContext, QuotaGrant, SecurityPolicy
from tests.core.conftest import run

GRANT = QuotaGrant(work_units=100.0)


def quota_policy():
    return SecurityPolicy(quota_grants={"*": GRANT})


class TwoSteps(Agent):
    """Computes 60 units twice: the second step crosses a 100 grant."""

    def on_arrival(self, context):
        yield from context.execute(60)
        yield from context.execute(60)


def test_run_guest_is_clamped_at_the_grant(adhoc_pair):
    a, _ = adhoc_pair
    a.policy = quota_policy()

    def greedy(context):
        context.charge(60)
        context.charge(60)

    result = a.run_guest(greedy, "guest")
    assert not result.ok
    assert result.error_type == "SandboxViolation"
    assert result.work_used == GRANT.work_units


def recording_contexts(monkeypatch):
    """Record every ``ExecutionContext`` an agent stay meters on."""
    contexts = []

    class Recorded(ExecutionContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(agents, "ExecutionContext", Recorded)
    return contexts


def await_agent(host, agent, **initial_state):
    runtime = host.component("agents")
    agent_id = runtime.launch(agent, **initial_state)

    def wait():
        return (yield runtime.completion(agent_id))

    return run(host.world, wait())


def test_agent_stay_is_clamped_at_the_grant(adhoc_pair, monkeypatch):
    a, _ = adhoc_pair
    a.policy = quota_policy()
    contexts = recording_contexts(monkeypatch)
    final = await_agent(a, TwoSteps())
    assert final["outcome"] == "killed"
    # One stay, one context, metered at exactly the grant.
    assert [context.work_used for context in contexts] == [GRANT.work_units]
    assert a.world.metrics.counter(
        "security.sandbox_violations", labels={"node": "a"}
    ).value == 1


class OneStep(Agent):
    """Computes 10 units and completes where it was launched."""

    def on_arrival(self, context):
        yield from context.execute(10)


def test_storage_peak_samples_guest_runs_only(adhoc_pair):
    """Each ``run_guest`` run adds one ``security.guest_storage_peak``
    sample; an agent stay, which has no storage API, adds none."""
    a, _ = adhoc_pair
    for _ in range(3):
        a.run_guest(lambda context: context.store("k", "v"), "guest")
    assert await_agent(a, OneStep())["outcome"] == "completed"
    metrics = a.world.metrics
    runs = metrics.counter("security.sandbox_runs").value
    assert runs == 3
    assert metrics.histogram("security.guest_storage_peak").count == runs


class Swallower(Agent):
    """Catches the violation of a step that crosses the grant, then
    ends its stay as ``state["then"]`` says."""

    def on_arrival(self, context):
        yield from context.execute(60)
        try:
            yield from context.execute(60)
        except SandboxViolation:
            self.state["caught"] = True
        then = self.state["then"]
        if then == "migrate":
            yield from context.migrate("b")
        elif then == "clone":
            yield from context.clone_to("b")
        elif then == "die":
            context.die()
        elif then == "crash":
            raise RuntimeError("after the violation")


@pytest.mark.parametrize("then", ["return", "migrate", "clone", "die", "crash"])
def test_a_caught_violation_still_kills_the_agent(adhoc_pair, then):
    a, b = adhoc_pair
    a.policy = quota_policy()
    runtime = a.component("agents")
    final = await_agent(a, Swallower(), then=then)
    assert final["outcome"] == "killed"
    assert final["caught"] is True
    assert runtime.violations == 1
    assert runtime.failures == 0
    assert a.world.metrics.counter(
        "security.sandbox_violations", labels={"node": "a"}
    ).value == 1
    # Nothing was shipped: b never heard of the agent or a clone.
    assert a.world.metrics.counter("agents.migrations").value == 0
    assert a.world.metrics.counter("agents.clones").value == 0
    assert not b.component("agents").completed
    assert not b.component("agents").hosted
