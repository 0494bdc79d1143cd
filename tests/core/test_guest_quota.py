"""Guests on a host are preempted at their work quota.

A host runs every guest under its principal's
:class:`~repro.security.QuotaGrant`, and a charge that would cross the
grant's ``work_units`` never lands: the guest's metered work stops at
exactly the grant, both for a one-shot guest (``host.run_guest``) and
for an agent's stay (``AgentContext.execute``).  A stay is a guest run:
it lands in the same ``security.*`` families as a ``run_guest`` run.

Preemption is final for a stay too: an agent that catches its
violation is still killed, and it cannot migrate or clone away.
"""

import pytest

import repro.core.host as host_module
from repro.core import Agent, mutual_trust, standard_host
from repro.errors import SandboxViolation
from repro.net import Position, WIFI_ADHOC
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
    """Record every ``ExecutionContext`` a host builds for a guest."""
    contexts = []

    class Recorded(ExecutionContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(host_module, "ExecutionContext", Recorded)
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
    """Each guest run adds one ``security.guest_storage_peak`` sample:
    the three ``run_guest`` runs and the agent's stay, whose peak is 0
    (a stay has no storage API)."""
    a, _ = adhoc_pair
    for _ in range(3):
        a.run_guest(lambda context: context.store("k", "v"), "guest")
    assert await_agent(a, OneStep())["outcome"] == "completed"
    metrics = a.world.metrics
    runs = metrics.counter("security.sandbox_runs").value
    assert runs == 4
    peaks = metrics.histogram("security.guest_storage_peak")
    assert peaks.count == runs
    assert peaks.min == 0.0


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
    final = await_agent(a, Swallower(), then=then)
    assert final["outcome"] == "killed"
    assert final["caught"] is True
    assert ledger(a) == {"runs": 1, "ok": 0, "violations": 1, "errors": 0}
    # Nothing was shipped: b never heard of the agent or a clone.
    assert a.world.metrics.counter("agents.migrations").value == 0
    assert a.world.metrics.counter("agents.clones").value == 0
    assert not b.component("agents").completed
    assert not b.component("agents").hosted


def ledger(host):
    """A host's guest runs and how they ended, from its ``security.*``
    children (a run that ends ok observes its work)."""
    metrics = host.world.metrics
    labels = {"node": host.id}
    return {
        "runs": metrics.counter("security.sandbox_runs", labels=labels).value,
        "ok": metrics.histogram("security.guest_work", labels=labels).count,
        "violations": metrics.counter(
            "security.sandbox_violations", labels=labels
        ).value,
        "errors": metrics.counter(
            "security.sandbox_errors", labels=labels
        ).value,
    }


class Ending(Agent):
    """Computes 10 units, then ends its stay as ``state["then"]`` says."""

    def on_arrival(self, context):
        if context.host_id != "a":
            return
        yield from context.execute(10)
        then = self.state["then"]
        if then == "migrate":
            yield from context.migrate("b")
        elif then == "strand":
            yield from context.migrate("far")
        elif then == "die":
            context.die()
        elif then == "exceed":
            yield from context.execute(GRANT.work_units)
        elif then == "crash":
            raise RuntimeError("agent bug")


@pytest.mark.parametrize(
    "then, outcome, ending",
    [
        ("return", "completed", "ok"),
        ("migrate", "departed", "ok"),
        ("die", "died", "ok"),
        ("exceed", "killed", "violations"),
        ("crash", "crashed", "errors"),
        ("strand", "stranded", "errors"),
    ],
)
def test_a_stay_is_one_guest_run(world, then, outcome, ending):
    """Every way a stay ends adds one run to the stay host's ledger,
    and ``runs == ok + violations + errors``."""
    a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
    b = standard_host(world, "b", Position(20, 0), [WIFI_ADHOC])
    standard_host(world, "far", Position(5000, 0), [WIFI_ADHOC])
    mutual_trust(a, b)
    a.policy = quota_policy()
    agent_id = a.component("agents").launch(Ending(), then=then)
    world.run(until=300.0)
    final = a.component("agents").completed.get(
        agent_id, {"outcome": "departed"}
    )
    assert final["outcome"] == outcome
    expected = {"runs": 1, "ok": 0, "violations": 0, "errors": 0}
    expected[ending] = 1
    assert ledger(a) == expected
    assert world.metrics.counter(f"agents.{outcome}").value == (
        0 if outcome == "departed" else 1
    )


class Cloner(Agent):
    """Clones itself twice to the other host at each arrival, for
    ``state["generations"]`` generations."""

    def on_arrival(self, context):
        yield from context.execute(10)
        generation = int(self.state.get("generation", 0))
        if generation < int(self.state["generations"]):
            other = "b" if context.host_id == "a" else "a"
            self.state["generation"] = generation + 1
            yield from context.clone_to(other)
            yield from context.clone_to(other)


def test_every_clone_stay_is_a_guest_run(adhoc_pair):
    """G = 4 generations make 2^(G+1) - 2 = 30 clones; each clone's stay,
    like the first agent's, is one counted guest run."""
    a, b = adhoc_pair
    a.component("agents").launch(Cloner(), generations=4)
    a.world.run(until=600.0)
    metrics = a.world.metrics
    assert metrics.counter("agents.clones").value == 30
    stays = 1 + 30
    assert metrics.counter("agents.completed").value == stays
    assert metrics.counter("security.sandbox_runs").value == stays
    assert metrics.histogram("security.guest_work").count == stays
    assert ledger(a)["runs"] + ledger(b)["runs"] == stays
