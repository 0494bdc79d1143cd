"""Recovery invariants the middleware must uphold under faults.

Each helper runs one scenario through the chaos harness
(:mod:`repro.faults.chaos`) and raises ``AssertionError`` when the
invariant breaks:

* :func:`verify_retry_convergence` — pipeline and application retries
  converge through drops, crashes, partitions, and latency spikes;
* :func:`verify_discovery_recovery` — discovery finds nothing across a
  partition but re-finds providers after it heals;
* :func:`verify_agent_reroute` — a :class:`TaskAgent` rides out a
  crashed hop (retrying in place) and still completes its itinerary;
* :func:`verify_local_degradation` — with no usable link, paradigm
  selection degrades to ``LocalExecution`` instead of failing;
* :func:`verify_hostile_containment` — benign work survives hostile
  guests, and every guest is terminated by its grant.
"""

from typing import Dict, Generator

from repro.core import ParadigmSelector, World
from repro.core.invocation import LocalExecution
from repro.faults import (
    ChaosOutcome,
    FaultPlan,
    build_fleet,
    chaos_task,
    run_chaos,
    run_hostile,
)
from repro.faults.chaos import CHAOS_RETRY


def verify_hostile_containment(
    seed: int = 7, floor: float = 0.95
) -> ChaosOutcome:
    """The hostile-guest tier-1 invariant, as one callable check.

    Under the standard hostile plan: benign completion stays at or
    above ``floor``, every launched guest is terminated with
    ``SandboxViolation``, and nothing escapes the guest runner.
    """
    outcome = run_hostile(seed=seed)
    summary = outcome.summary
    guests = summary.get("hostile.guests", 0.0)
    terminated = summary.get("hostile.terminated", 0.0)
    escapes = summary.get("hostile.escapes", 0.0)
    assert outcome.completion_rate >= floor, (
        f"benign completion {outcome.completed}/{outcome.requests} fell "
        f"below the {floor:.0%} floor under hostile guests"
    )
    assert guests >= 3, f"hostile plan launched only {guests:g} guests"
    assert terminated == guests, (
        f"{terminated:g}/{guests:g} hostile guests terminated with "
        "SandboxViolation"
    )
    assert escapes == 0, f"{escapes:g} hostile guests escaped containment"
    return outcome


def verify_retry_convergence(
    seed: int = 11, floor: float = 0.95
) -> ChaosOutcome:
    """Retries converge: completion stays above ``floor`` under the
    standard plan, and the faults demonstrably bit (something retried)."""
    outcome = run_chaos(seed=seed)
    disruptions = outcome.app_retries + int(
        outcome.summary.get("paradigm.cs.retries", 0.0)
    )
    assert outcome.completion_rate >= floor, (
        f"chaos completion {outcome.completed}/{outcome.requests} fell "
        f"below the {floor:.0%} floor"
    )
    assert disruptions > 0, "fault plan injected nothing (no retries seen)"
    return outcome


def verify_discovery_recovery(seed: int = 5) -> Dict[str, int]:
    """Discovery goes dark across a partition and re-finds after heal."""
    world = World(seed=seed)
    client_hosts, server_hosts = build_fleet(world, clients=1, servers=1)
    client = client_hosts[0]
    discovery = client.components["discovery"]
    plan = FaultPlan().partition(
        [[client.id], [server_hosts[0].id]], at=10.0, duration=20.0
    )
    plan.inject(world)
    found: Dict[str, int] = {}

    def scenario() -> Generator:
        before = yield from discovery.find("compute", use_cache=False)
        found["before"] = len(before)
        yield world.env.timeout(12.0 - world.now)  # inside the partition
        during = yield from discovery.find("compute", use_cache=False)
        found["during"] = len(during)
        yield world.env.timeout(35.0 - world.now)  # healed
        after = yield from discovery.find("compute", use_cache=False)
        found["after"] = len(after)

    process = world.env.process(scenario(), name="disc-recovery")
    world.run(until=process)
    assert found["before"] > 0, "provider not discoverable before the fault"
    assert found["during"] == 0, "partition did not isolate discovery"
    assert found["after"] > 0, "discovery did not recover after heal"
    return found


def verify_agent_reroute(seed: int = 3) -> Dict[str, float]:
    """A task agent retries a crashed hop and completes once the node
    restarts — the itinerary survives churn."""
    world = World(seed=seed)
    task = chaos_task()
    client_hosts, server_hosts = build_fleet(
        world, clients=1, servers=2, task=task
    )
    client = client_hosts[0]
    runtime = client.components["agents"]
    # First itinerary hop crashes under the agent and restarts at t=5;
    # the hop retry backoff (2s, then 4s) lands after the restart.
    plan = FaultPlan().crash([server_hosts[0].id], at=0.0, down_s=5.0)
    plan.inject(world)
    targets = [server.id for server in server_hosts]

    def scenario() -> Generator:
        results = yield from runtime.invoke(task, targets, retry=CHAOS_RETRY)
        return results

    process = world.env.process(scenario(), name="agent-reroute")
    results = world.run(until=process)
    assert len(results) == len(targets), (
        f"agent visited {len(results)}/{len(targets)} itinerary hosts"
    )
    retries = world.metrics.counter("paradigm.ma.retries").value
    assert retries >= 1, "crash injected but the agent never retried a hop"
    return {"results": len(results), "retries": retries}


def verify_local_degradation(seed: int = 2) -> str:
    """With the link partitioned away, selection falls back to local
    execution rather than failing the task."""
    world = World(seed=seed)
    task = chaos_task()
    client_hosts, server_hosts = build_fleet(
        world, clients=1, servers=1, task=task
    )
    client = client_hosts[0]
    client.add_component(LocalExecution())
    plan = FaultPlan().partition(
        [[client.id], [server_hosts[0].id]], at=0.0, duration=60.0
    )
    plan.inject(world)
    selector = ParadigmSelector(
        available=["cs", "rev", "cod", "ma", "local"]
    )

    def scenario() -> Generator:
        yield world.env.timeout(1.0)  # let the partition open first
        outcome = yield from selector.select_and_invoke(
            client, task, target=server_hosts[0].id
        )
        return outcome

    process = world.env.process(scenario(), name="local-degradation")
    outcome = world.run(until=process)
    assert outcome.paradigm == "local", (
        f"expected offline fallback to 'local', got {outcome.paradigm!r}"
    )
    assert outcome.result == {"echo": None}
    return outcome.paradigm
