"""Chaos harness: workloads under fault plans.

:func:`run_chaos` assembles a small ad-hoc fleet, drives a request
workload through the full middleware stack while a :class:`FaultPlan`
plays out, and reports what completed.  Because both the workload and
the faults are scheduled deterministically, the whole scenario is a
pure function of the seed — two same-seed runs produce bit-identical
metrics, which is what makes chaos results diffable and gateable.
:func:`run_hostile` is the same fleet with hostile guests attacking
the servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..core import (
    InvocationTask,
    RetryPolicy,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
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
    hostile runs arm tight quota grants on the attack surface).
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

    The four monitors mirror the recovery invariants the tests check
    after a run, but run *in flight* on every node: under the standard
    plan a healthy stack dips to ``degraded`` while fault windows are
    open (the breach events prove the monitors see the faults bite)
    and recovers — ``critical`` levels mean the middleware failed to
    converge, which is exactly what ``repro health --strict`` exits
    non-zero on.
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


def _run_fleet(
    hostile: bool,
    seed: int,
    clients: int,
    servers: int,
    requests_per_client: int,
    spacing_s: float,
    plan: Optional[FaultPlan],
    trace_enabled: bool,
    slos,
    sample_cadence: Optional[float],
) -> ChaosOutcome:
    """The fleet run behind :func:`run_chaos` and :func:`run_hostile`;
    ``hostile`` picks the hostile default plan, server policy, verdict
    counters and report name.

    Message ids (``msg_id`` in captured spans) come from a process-wide
    counter, so the run sits in a :func:`fresh_message_ids` scope: a
    same-seed run is then bit-identical whether it is the first job in
    a fresh worker or the fortieth (what ``repro matrix --strict``
    replay checks).
    """
    for name, value, least in (
        ("servers", servers, 1),
        ("clients", clients, 0),
        ("requests_per_client", requests_per_client, 0),
    ):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if plan is None:
        plan = hostile_plan(servers) if hostile else standard_plan(clients, servers)
    with fresh_message_ids():
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
            server_policy=hostile_policy() if hostile else None,
        )
        plan.inject(world)
        metrics = world.metrics
        # Pre-create outcome counters so they report even when zero.
        for name in ("chaos.completed", "chaos.failed", "chaos.app_retries"):
            metrics.counter(name)
        if hostile and len(plan):
            # Pre-create the verdict counters so a clean run still
            # reports hostile.escapes == 0 (absence would be
            # unfalsifiable).
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
        outcome = ChaosOutcome(
            seed=seed,
            requests=requests,
            completed=int(metrics.counter("chaos.completed").value),
            failed=int(metrics.counter("chaos.failed").value),
            app_retries=int(metrics.counter("chaos.app_retries").value),
            duration_s=world.now,
        )
        metrics.gauge("chaos.completion_rate").set(outcome.completion_rate)
        outcome.summary = world.summary()
        from ..obs import RunReport

        outcome.report = RunReport.capture(
            "hostile" if hostile else "chaos",
            world,
            params={
                "seed": seed,
                "clients": clients,
                "servers": servers,
                "requests": requests,
                "faults": len(plan),
                **({"hostile_guests": len(plan)} if hostile else {}),
                "completion_rate": outcome.completion_rate,
            },
            # capture() stamps sim-time by default, so the whole
            # document is a pure function of the seed and determinism
            # tests compare reports wholesale instead of stripping the
            # wall-clock field.
        ).to_dict()
        return outcome


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
    bit-identity test compares against.  A fleet needs at least one
    server; ``ValueError`` names the first bad size.
    """
    return _run_fleet(
        False, seed, clients, servers, requests_per_client, spacing_s,
        plan, trace_enabled, slos, sample_cadence,
    )


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
    return _fleet_job(run_chaos, "plan", seed, plan, slos, spans, params)


def _fleet_job(
    run: Callable[..., ChaosOutcome],
    plan_keyword: str,
    seed: int,
    plan: object,
    slos: bool,
    spans: bool,
    params: Dict[str, object],
) -> Dict[str, object]:
    """The body :func:`chaos_job` and ``hostile_job`` share."""
    outcome = run(
        seed=seed,
        trace_enabled=spans,
        slos=standard_slos() if slos else None,
        **{plan_keyword: resolve_plan_spec(plan)},
        **params,
    )
    return outcome.report


# ---------------------------------------------------------------------------
# Hostile-guest chaos
# ---------------------------------------------------------------------------


#: The grant hostile principals receive under :func:`hostile_policy`:
#: small enough that every hostile body is preempted at its quota
#: within sim-milliseconds.
HOSTILE_GRANT = QuotaGrant(
    work_units=40_000.0,
    storage_bytes=32_000,
    service_calls=16,
)


def hostile_policy() -> SecurityPolicy:
    """A server policy arming tight quotas on hostile principals.

    Every principal matching ``hostile:*`` runs under
    :data:`HOSTILE_GRANT`; everyone else keeps the default budgets, so
    the benign workload is untouched.
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
    return _run_fleet(
        True, seed, clients, servers, requests_per_client, spacing_s,
        hostile, trace_enabled, slos, sample_cadence,
    )
