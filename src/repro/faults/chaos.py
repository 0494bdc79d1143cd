"""Chaos harness: workloads under fault plans, with recovery invariants.

:func:`run_chaos` assembles a small ad-hoc fleet, drives a request
workload through the full middleware stack while a :class:`FaultPlan`
plays out, and reports what completed.  Because both the workload and
the faults are scheduled deterministically, the whole scenario is a
pure function of the seed — two same-seed runs produce bit-identical
metrics, which is what makes chaos results diffable and gateable.

The ``verify_*`` helpers are the recovery invariants the paper's
middleware must uphold (each raises ``AssertionError`` on violation):

* :func:`verify_retry_convergence` — pipeline and application retries
  converge through drops, crashes, partitions, and latency spikes;
* :func:`verify_discovery_recovery` — discovery finds nothing across a
  partition but re-finds providers after it heals;
* :func:`verify_agent_reroute` — a :class:`TaskAgent` rides out a
  crashed hop (retrying in place) and still completes its itinerary;
* :func:`verify_local_degradation` — with no usable link, paradigm
  selection degrades to ``LocalExecution`` instead of failing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..core import (
    InvocationTask,
    ParadigmSelector,
    RetryPolicy,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
from ..core.invocation import LocalExecution
from ..core.services import ServiceDescription
from ..errors import ReproError
from ..net import WIFI_ADHOC, Position
from ..net.message import fresh_message_ids
from ..security import QuotaGrant, SecurityPolicy
from .plan import FaultPlan

#: Link-level retry for chaos calls: a little more patient than the
#: pipeline default, so brief fault windows are ridden out in-band.
CHAOS_RETRY = RetryPolicy(attempts=4, base_delay_s=1.0)
#: Application-level retry budget per request, on top of CHAOS_RETRY.
APP_ATTEMPTS = 4
APP_BACKOFF_S = 5.0


def _deterministic_ids(fn: Callable) -> Callable:
    """Run ``fn`` inside a :func:`fresh_message_ids` scope.

    Message ids (recorded in captured spans as ``msg_id``) come from a
    process-wide counter, so without the scope a scenario's report
    bytes depended on whatever ran earlier in the same process — the
    nondeterminism ``repro matrix --strict`` replay checking flushed
    out.  With it, a same-seed run is bit-identical whether it is the
    first job in a fresh worker or the fortieth.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with fresh_message_ids():
            return fn(*args, **kwargs)

    return wrapper


def chaos_task(name: str = "chaos.echo") -> InvocationTask:
    """The workload unit: a small echo service that can run anywhere."""

    def factory():
        def body(ctx, payload):
            return {"echo": payload}

        return body

    return InvocationTask(
        name=name,
        factory=factory,
        payload=None,
        work_units=5_000.0,
        code_bytes=4_000,
        request_bytes=128,
        reply_bytes=128,
        result_bytes=128,
        timeout=10.0,
    )


def build_fleet(
    world: World,
    clients: int = 4,
    servers: int = 2,
    task: Optional[InvocationTask] = None,
    server_policy: Optional[SecurityPolicy] = None,
) -> Tuple[List, List]:
    """A fixed grid of Wi-Fi ad-hoc hosts, all in mutual radio range.

    Positions are static so the fault plan is the only source of
    disruption.  Servers are provisioned to serve ``task`` (and
    advertise it for discovery); everyone trusts everyone.
    ``server_policy`` overrides the servers' security policy (how
    hostile runs arm strict quota grants on the attack surface).
    """
    task = task if task is not None else chaos_task()
    client_hosts = [
        standard_host(
            world,
            f"client-{index}",
            Position(10.0 * index, 0.0),
            [WIFI_ADHOC],
            cpu_speed=0.2,
        )
        for index in range(clients)
    ]
    server_kwargs = {} if server_policy is None else {"policy": server_policy}
    server_hosts = [
        standard_host(
            world,
            f"server-{index}",
            Position(10.0 * index, 40.0),
            [WIFI_ADHOC],
            fixed=True,
            cpu_speed=2.0,
            **server_kwargs,
        )
        for index in range(servers)
    ]
    mutual_trust(*client_hosts, *server_hosts)
    for server in server_hosts:
        provision_task(server, task)
        server.components["discovery"].advertise(
            ServiceDescription(
                service_type="compute",
                provider=server.id,
                name=task.name,
            )
        )
    return client_hosts, server_hosts


def standard_slos():
    """The chaos invariants as checked-in per-node SLOs.

    The four monitors mirror the ``verify_*`` invariants but run *in
    flight* on every node: under the standard plan a healthy stack
    dips to ``degraded`` while fault windows are open (the breach
    events prove the monitors see the faults bite) and recovers —
    ``critical`` levels mean the middleware failed to converge, which
    is exactly what ``repro health --strict`` exits non-zero on.
    """
    from ..obs.health import SloSpec

    return (
        SloSpec(
            name="completion",
            numerator="chaos.completed",
            denominator="chaos.requests_done",
            window_s=None,
            degraded=0.995,
            critical=0.4,
            comparison="below",
            min_denominator=3.0,
            description="cumulative per-client completion ratio",
        ),
        SloSpec(
            name="stale_replies",
            numerator="host.stale_replies",
            window_s=30.0,
            degraded=0.0,
            critical=12.0,
            comparison="above",
            description="late/duplicate replies discarded in the window",
        ),
        SloSpec(
            name="retry_burn",
            numerator="paradigm.cs.retries",
            denominator="paradigm.cs.calls",
            window_s=60.0,
            degraded=2.0,
            critical=6.0,
            comparison="above",
            min_denominator=2.0,
            description="link retries per call in the window",
        ),
        SloSpec(
            name="reachability",
            numerator="net.unreachable",
            window_s=30.0,
            degraded=0.0,
            critical=40.0,
            comparison="above",
            description="sends that found no link in the window",
        ),
    )


def standard_plan(
    clients: int = 4, servers: int = 2, scale: float = 1.0
) -> FaultPlan:
    """The default chaos schedule: one of everything, all recoverable.

    Every fault window closes and every crashed node restarts, so a
    correct stack converges back to service; ``scale`` stretches the
    schedule for longer workloads.
    """
    client_ids = [f"client-{index}" for index in range(clients)]
    server_ids = [f"server-{index}" for index in range(servers)]
    plan = FaultPlan()
    plan.drop(at=4.0 * scale, duration=8.0 * scale, rate=0.35)
    plan.duplicate(
        at=6.0 * scale,
        duration=30.0 * scale,
        rate=0.5,
        delay_s=0.25,
        message_kinds=("cs.reply",),
    )
    plan.crash([server_ids[0]], at=16.0 * scale, down_s=6.0 * scale)
    plan.partition(
        [client_ids, server_ids], at=30.0 * scale, duration=7.0 * scale
    )
    plan.delay(at=40.0 * scale, duration=6.0 * scale, extra_s=0.8, rate=0.6)
    plan.corrupt(at=47.0 * scale, duration=8.0 * scale, rate=0.4)
    plan.link_flap([client_ids[0]], at=55.0 * scale, down_s=3.0 * scale)
    return plan


@dataclass
class ChaosOutcome:
    """What a chaos run did, plus the world's full metric summary."""

    seed: int
    requests: int
    completed: int
    failed: int
    app_retries: int
    duration_s: float
    summary: Dict[str, float] = field(repr=False, default_factory=dict)
    #: Full :class:`~repro.obs.RunReport` dict for this run (metrics,
    #: params, kind counts) — what the chaos benchmark writes and
    #: what the determinism test compares bit-for-bit.
    report: Dict[str, object] = field(repr=False, default_factory=dict)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.requests if self.requests else 1.0


def _client_driver(
    world: World,
    client,
    servers: List,
    task: InvocationTask,
    requests: int,
    spacing_s: float,
    offset: int,
) -> Generator:
    """One client's request loop with an application retry budget."""
    metrics = world.metrics
    # Per-client labeled children: each tally lands on the
    # ``{node=...}`` series and forwards to the flat chaos.* totals.
    labels = {"node": client.id}
    app_retries = metrics.counter("chaos.app_retries", labels=labels)
    completed = metrics.counter("chaos.completed", labels=labels)
    failed = metrics.counter("chaos.failed", labels=labels)
    requests_done = metrics.counter("chaos.requests_done", labels=labels)
    cs = client.components["cs"]
    for sequence in range(requests):
        yield world.env.timeout(spacing_s)
        server = servers[(sequence + offset) % len(servers)]
        done = False
        for attempt in range(APP_ATTEMPTS):
            try:
                yield from cs.call(
                    server.id,
                    task.name,
                    args={"from": client.id, "seq": sequence},
                    timeout=task.timeout,
                    retry=CHAOS_RETRY,
                )
                done = True
                break
            except ReproError:
                if attempt + 1 < APP_ATTEMPTS:
                    app_retries.increment()
                    yield world.env.timeout(APP_BACKOFF_S * (attempt + 1))
        (completed if done else failed).increment()
        # Denominator of the per-node completion SLO: settled requests,
        # so in-flight work never reads as failure mid-run.
        requests_done.increment()


@_deterministic_ids
def run_chaos(
    seed: int = 7,
    clients: int = 4,
    servers: int = 2,
    requests_per_client: int = 6,
    spacing_s: float = 8.0,
    plan: Optional[FaultPlan] = None,
    trace_enabled: bool = False,
    slos=None,
    sample_cadence: Optional[float] = None,
) -> ChaosOutcome:
    """Drive the echo workload under ``plan`` (default
    :func:`standard_plan`); returns a :class:`ChaosOutcome`.

    ``trace_enabled`` captures causal spans (and the ``trace.*``
    analytics derived from them).  ``slos`` arms the in-run health
    engine (e.g. :func:`standard_slos`); ``sample_cadence`` attaches
    the sim-time sampler on its own — what the armed-vs-unarmed
    bit-identity test compares against.
    """
    world = World(seed=seed, trace_enabled=trace_enabled)
    if sample_cadence is not None:
        world.sample_series(cadence=sample_cadence)
    if slos is not None:
        world.enable_health(
            slos,
            cadence=5.0 if sample_cadence is None else sample_cadence,
        )
    task = chaos_task()
    client_hosts, server_hosts = build_fleet(
        world, clients=clients, servers=servers, task=task
    )
    plan = plan if plan is not None else standard_plan(clients, servers)
    plan.inject(world)
    metrics = world.metrics
    # Pre-create outcome counters so they report even when zero.
    for name in ("chaos.completed", "chaos.failed", "chaos.app_retries"):
        metrics.counter(name)
    drivers = [
        world.env.process(
            _client_driver(
                world,
                client,
                server_hosts,
                task,
                requests_per_client,
                spacing_s,
                offset,
            ),
            name=f"chaos:{client.id}",
        )
        for offset, client in enumerate(client_hosts)
    ]
    world.run(until=world.env.all_of(drivers))
    requests = clients * requests_per_client
    completed = int(metrics.counter("chaos.completed").value)
    outcome = ChaosOutcome(
        seed=seed,
        requests=requests,
        completed=completed,
        failed=int(metrics.counter("chaos.failed").value),
        app_retries=int(metrics.counter("chaos.app_retries").value),
        duration_s=world.now,
    )
    metrics.gauge("chaos.completion_rate").set(outcome.completion_rate)
    outcome.summary = world.summary()
    from ..obs import RunReport

    outcome.report = RunReport.capture(
        "chaos",
        world,
        params={
            "seed": seed,
            "clients": clients,
            "servers": servers,
            "requests": requests,
            "faults": len(plan),
            "completion_rate": outcome.completion_rate,
        },
        # capture() stamps sim-time by default, so the whole document
        # is a pure function of the seed and determinism tests compare
        # reports wholesale instead of stripping the wall-clock field.
    ).to_dict()
    return outcome


def resolve_plan_spec(plan: object) -> Optional[FaultPlan]:
    """Decode a run-matrix plan spec into a :class:`FaultPlan`.

    ``None`` / ``"default"`` mean "let the scenario build its own
    default schedule" (returned as ``None``); ``"none"`` is the
    explicit unarmed control run; a dict is a serialised plan
    (:meth:`FaultPlan.from_dict`) — how a matrix spec file ships a
    custom fault schedule to worker processes as plain JSON.
    """
    if plan is None or plan == "default":
        return None
    if plan == "none":
        return FaultPlan()
    if isinstance(plan, dict):
        return FaultPlan.from_dict(plan)
    raise ValueError(
        f"unknown fault-plan spec {plan!r} — want None, 'default', "
        "'none', or a FaultPlan dict"
    )


def chaos_job(
    seed: int,
    plan: object = None,
    slos: bool = False,
    spans: bool = True,
    **params: object,
) -> Dict[str, object]:
    """The chaos scenario as an importable run-matrix job target.

    One job = one :func:`run_chaos` with everything JSON-addressable:
    ``plan`` follows :func:`resolve_plan_spec`, ``slos`` arms the four
    standard per-node monitors, remaining ``params`` go straight to
    :func:`run_chaos` (``clients``, ``servers``,
    ``requests_per_client``, ``spacing_s``).  Returns the full
    :class:`~repro.obs.RunReport` dict — a pure function of the
    arguments, which is what lets ``repro matrix --strict`` replay any
    job in-process and demand byte identity with the worker pool.
    """
    outcome = run_chaos(
        seed=seed,
        plan=resolve_plan_spec(plan),
        trace_enabled=spans,
        slos=standard_slos() if slos else None,
        **params,  # type: ignore[arg-type]
    )
    return outcome.report


# ---------------------------------------------------------------------------
# Hostile-guest chaos
# ---------------------------------------------------------------------------


#: The strict grant hostile principals receive under
#: :func:`hostile_policy`: small enough that every hostile body trips
#: its quota within sim-milliseconds, enforced by the strict provider.
HOSTILE_GRANT = QuotaGrant(
    work_units=40_000.0,
    storage_bytes=32_000,
    service_calls=16,
    provider="strict",
)


def hostile_policy() -> SecurityPolicy:
    """A server policy arming strict quotas on hostile principals.

    Every principal matching ``hostile:*`` runs under
    :data:`HOSTILE_GRANT` on the strict provider; everyone else keeps
    the default budgets, so the benign workload is untouched.
    """
    return SecurityPolicy(
        require_signatures=True,
        quota_grants={"hostile:*": HOSTILE_GRANT},
    )


def hostile_plan(
    servers: int = 2, at: float = 10.0, spacing: float = 6.0
) -> FaultPlan:
    """The standard hostile-guest schedule: all three attack bodies.

    A quota-exhaustion loop lands on server-0, a scratch-storage bomb
    on every server, and a service-flood confused deputy on the last —
    staggered ``spacing`` seconds apart so each attack's metered cost
    is attributable in the trace.
    """
    server_ids = [f"server-{index}" for index in range(servers)]
    plan = FaultPlan()
    plan.hostile_guest([server_ids[0]], at=at, guest="quota_loop")
    plan.hostile_guest(server_ids, at=at + spacing, guest="storage_bomb")
    plan.hostile_guest(
        [server_ids[-1]], at=at + 2 * spacing, guest="service_flood"
    )
    return plan


@_deterministic_ids
def run_hostile(
    seed: int = 7,
    clients: int = 3,
    servers: int = 2,
    requests_per_client: int = 6,
    spacing_s: float = 8.0,
    hostile: Optional[FaultPlan] = None,
    trace_enabled: bool = False,
    slos=None,
    sample_cadence: Optional[float] = None,
) -> ChaosOutcome:
    """The benign echo workload with hostile guests attacking servers.

    Like :func:`run_chaos`, but the fault plan is the hostile-guest
    family (default :func:`hostile_plan`) and the servers run
    :func:`hostile_policy`, so the tier-1 invariants are checkable on
    the outcome: benign completion stays >= 0.95 while every hostile
    guest is terminated with ``SandboxViolation`` (``hostile.escapes``
    stays 0) and its quota usage lands in per-node ``security.*`` /
    ``hostile.*`` metrics inside the v3 report.  Pass an empty
    ``FaultPlan()`` for the unarmed control run — it is bit-identical
    to :func:`run_chaos` with an empty plan and the same fleet shape.
    """
    world = World(seed=seed, trace_enabled=trace_enabled)
    if sample_cadence is not None:
        world.sample_series(cadence=sample_cadence)
    if slos is not None:
        world.enable_health(
            slos,
            cadence=5.0 if sample_cadence is None else sample_cadence,
        )
    task = chaos_task()
    client_hosts, server_hosts = build_fleet(
        world,
        clients=clients,
        servers=servers,
        task=task,
        server_policy=hostile_policy(),
    )
    hostile = hostile if hostile is not None else hostile_plan(servers)
    hostile.inject(world)
    metrics = world.metrics
    for name in ("chaos.completed", "chaos.failed", "chaos.app_retries"):
        metrics.counter(name)
    if len(hostile):
        # Pre-create the verdict counters so a clean run still reports
        # hostile.escapes == 0 (absence would be unfalsifiable).
        for name in ("hostile.guests", "hostile.terminated", "hostile.escapes"):
            metrics.counter(name)
    drivers = [
        world.env.process(
            _client_driver(
                world,
                client,
                server_hosts,
                task,
                requests_per_client,
                spacing_s,
                offset,
            ),
            name=f"chaos:{client.id}",
        )
        for offset, client in enumerate(client_hosts)
    ]
    world.run(until=world.env.all_of(drivers))
    requests = clients * requests_per_client
    completed = int(metrics.counter("chaos.completed").value)
    outcome = ChaosOutcome(
        seed=seed,
        requests=requests,
        completed=completed,
        failed=int(metrics.counter("chaos.failed").value),
        app_retries=int(metrics.counter("chaos.app_retries").value),
        duration_s=world.now,
    )
    metrics.gauge("chaos.completion_rate").set(outcome.completion_rate)
    outcome.summary = world.summary()
    from ..obs import RunReport

    outcome.report = RunReport.capture(
        "hostile",
        world,
        params={
            "seed": seed,
            "clients": clients,
            "servers": servers,
            "requests": requests,
            "faults": len(hostile),
            "hostile_guests": len(hostile),
            "completion_rate": outcome.completion_rate,
        },
    ).to_dict()
    return outcome


def verify_hostile_containment(
    seed: int = 7, floor: float = 0.95
) -> ChaosOutcome:
    """The hostile-guest tier-1 invariant, as one callable check.

    Under the standard hostile plan: benign completion stays at or
    above ``floor``, every launched guest is terminated with
    ``SandboxViolation``, and nothing escapes the providers.
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


# ---------------------------------------------------------------------------
# Recovery invariants
# ---------------------------------------------------------------------------


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
