"""The four end-to-end workloads, built only through repro's public API.

Every workload is a closed loop in simulated time: a client issues its
next operation only after the previous one settled and a fixed think
time passed.  A run has two phases of fixed simulated length:

* set-up — build the world, then simulate ``warmup_s`` seconds so the
  topology, path and code caches fill;
* measured — simulate ``measure_s`` more seconds.  Only operations that
  complete in this phase are counted.

Both phases advance in slices of ``slice_s`` simulated seconds and call
the caller's ``lap`` after each slice.  Every run of a seed does the
same work in each slice, which lets ``run.py`` take a per-slice median
across runs.

Each operation's result is checked against what the program must
return (an echo equals its arguments, a task result equals its body's
return value, a routed message lands in the destination's inbox, a
planned path is a walk over current links), and the run ends with a
digest of its simulated outcome: two runs of one seed must agree on it
exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import replace
from typing import Callable, Dict, Generator, List, Optional

from repro import World, mutual_trust, standard_host
from repro.core import (
    InvocationTask,
    LocalExecution,
    ParadigmSelector,
    provision_task,
)
from repro.errors import ReproError, TransportTimeout, Unreachable
from repro.faults import FaultPlan, chaos_task
from repro.faults.chaos import APP_ATTEMPTS, APP_BACKOFF_S, CHAOS_RETRY
from repro.net import (
    GPRS,
    LAN,
    WIFI_ADHOC,
    Area,
    HierarchicalRouter,
    Message,
    Position,
    RandomWaypoint,
    Router,
    grid_positions,
)
from repro.sim.metrics import interpolated_quantile
from repro.workloads import TASK_CLASSES, zipf_indices

#: Flat counters read at the warm-up boundary and at the end, so the
#: per-layer counts cover the measured phase only.
COUNTERS = (
    "net.bytes_sent",
    "net.messages_delivered",
    "net.messages_lost",
    "net.retransmissions",
    "host.stale_replies",
    "cod.hits",
    "cod.misses",
    "cod.bytes_fetched",
    "rev.bytes_shipped",
    "security.sandbox_runs",
    "security.verifications",
) + tuple(
    f"paradigm.{kind}.{name}"
    for kind in ("cs", "rev", "cod", "ma", "local")
    for name in ("calls", "retries")
)

#: Quantiles of operation latency every run reports.  p99.9 is left
#: out: no run completes the 10k operations that would put ten samples
#: beyond it.
QUANTILES = {"p50": 0.5, "p99": 0.99}


class Workload:
    """One world plus its clients; subclasses build both."""

    warmup_s = 10.0
    measure_s = 20.0
    #: Simulated seconds per timing slice (tens of milliseconds of wall).
    slice_s = 1.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.world = World(seed=seed)
        self.env = self.world.env
        self.latencies: List[float] = []
        self.failed = 0
        self.wrong = 0
        self.picks: Dict[str, int] = {}
        self.build(scale)

    def build(self, scale: float) -> None:
        """Create hosts and start the client processes."""
        raise NotImplementedError

    @staticmethod
    def scaled(count: int, scale: float) -> int:
        return max(1, round(count * scale))

    # -- phases ----------------------------------------------------------------

    def advance(self, until: float, lap: Callable[[], None]) -> None:
        start = self.env.now
        for index in range(1, math.ceil((until - start) / self.slice_s) + 1):
            self.world.run(until=min(until, start + index * self.slice_s))
            lap()

    def warm_up(self, lap: Callable[[], None]) -> None:
        self.advance(self.warmup_s, lap)
        self._before = self.counters()
        self._before_evictions = self.evictions()
        self._before_topology = dict(self.world.network.cache_stats)

    def measure(self, lap: Callable[[], None]) -> None:
        self.advance(self.warmup_s + self.measure_s, lap)

    def settle(self, started: float, ok: bool, correct: bool = True) -> None:
        """Record one finished operation (counted once warm-up is over)."""
        if self.env.now < self.warmup_s:
            return
        if not ok:
            self.failed += 1
        elif not correct:
            self.wrong += 1
        self.latencies.append(self.env.now - started)

    # -- outcome ---------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        metrics = self.world.metrics
        present = set(metrics.names())
        return {
            name: metrics.counter(name).value
            for name in COUNTERS
            if name in present
        }

    def evictions(self) -> int:
        return sum(host.codebase.evictions for host in self.world.hosts.values())

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer work counts over the measured phase."""
        after = self.counters()
        delta = {
            name: after.get(name, 0.0) - self._before.get(name, 0.0)
            for name in COUNTERS
        }

        def total(field: str) -> float:
            return sum(
                value
                for name, value in delta.items()
                if name.startswith("paradigm.") and name.endswith(field)
            )

        messages = delta["net.messages_delivered"] + delta["net.messages_lost"]
        invocations = total(".calls")
        cod = delta["cod.hits"] + delta["cod.misses"]
        stats = self.world.network.cache_stats
        before = self._before_topology
        hits = stats["hits"] - before["hits"]
        lookups = hits + stats["misses"] - before["misses"]
        counts = {
            "net.transport.messages": messages,
            "net.transport.retransmit_ratio": ratio(
                delta["net.retransmissions"], messages
            ),
            "net.topology.cache_hit_ratio": ratio(hits, lookups),
            "net.topology.revalidations": float(
                stats["revalidations"] - before["revalidations"]
            ),
            "core.invocation.invocations": invocations,
            "core.invocation.retries_per_call": ratio(
                total(".retries"), invocations
            ),
            "core.invocation.stale_replies": delta["host.stale_replies"],
            "lmu.cod_hit_ratio": ratio(delta["cod.hits"], cod),
            "lmu.evictions": float(self.evictions() - self._before_evictions),
            "lmu.bytes_shipped": delta["cod.bytes_fetched"]
            + delta["rev.bytes_shipped"],
            "security.sandbox_runs": delta["security.sandbox_runs"],
            "security.verifications": delta["security.verifications"],
        }
        for kind in ADAPTIVE:
            counts[f"core.paradigms.picks.{kind}"] = float(self.picks.get(kind, 0))
        counts.update(self.routing_counts())
        return counts

    def routing_counts(self) -> Dict[str, float]:
        return {
            "net.routing.paths": 0.0,
            "net.routing.path_hit_ratio": 0.0,
            "net.routing.flat_fallbacks": 0.0,
        }

    def outcome(self) -> Dict[str, object]:
        """Operation counts, latencies, bytes, per-layer counts, digest."""
        ordered = sorted(self.latencies)
        ops = len(ordered)
        wire = self.counters().get("net.bytes_sent", 0.0) - self._before.get(
            "net.bytes_sent", 0.0
        )
        result: Dict[str, object] = {
            "ops": ops,
            "failed": self.failed,
            "wrong": self.wrong,
            "wire_bytes_per_op": ratio(wire, ops),
            "latency_mean_s": ratio(sum(ordered), ops),
            "sim_end_s": self.env.now,
        }
        for label, q in QUANTILES.items():
            result[f"latency_{label}_s"] = interpolated_quantile(ordered, q)
        document = dict(result, metrics=self.world.metrics.snapshot())
        result["digest"] = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest()
        result["counts"] = self.layer_counts()
        return result


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# chaos_fleet
# ---------------------------------------------------------------------------


class ChaosFleet(Workload):
    """Echo calls in isolated Wi-Fi cells under repeating faults."""

    warmup_s = 28.0
    measure_s = 48.0
    cells = 170
    cell_pitch_m = 1_000.0
    clients_per_cell = 4
    servers_per_cell = 2
    think_s = 5.0
    #: Message-fault windows repeat this often; churn covers the run.
    fault_period_s = 40.0
    churn_down_s = 8.0

    def build(self, scale: float) -> None:
        world = self.world
        cells = self.scaled(self.cells, scale)
        columns = math.ceil(math.sqrt(cells))
        self.task = chaos_task()
        server_ids = []
        for cell in range(cells):
            x0 = self.cell_pitch_m * (cell % columns)
            y0 = self.cell_pitch_m * (cell // columns)
            clients = [
                standard_host(
                    world,
                    f"c{cell}-client-{index}",
                    Position(x0 + 10.0 * index, y0),
                    [WIFI_ADHOC],
                    cpu_speed=0.2,
                )
                for index in range(self.clients_per_cell)
            ]
            servers = [
                standard_host(
                    world,
                    f"c{cell}-server-{index}",
                    Position(x0 + 10.0 * index, y0 + 40.0),
                    [WIFI_ADHOC],
                    fixed=True,
                    cpu_speed=2.0,
                )
                for index in range(self.servers_per_cell)
            ]
            mutual_trust(*clients, *servers)
            for server in servers:
                provision_task(server, self.task)
            server_ids.extend(server.id for server in servers)
            for offset, client in enumerate(clients):
                self.env.process(
                    self.client(client, servers, offset), name=f"bench:{client.id}"
                )
        self.plan(server_ids).inject(world)

    def plan(self, server_ids: List[str]) -> FaultPlan:
        """Message-fault windows every period, plus server churn."""
        windows = FaultPlan()
        windows.duplicate(
            at=14.0,
            duration=6.0,
            rate=0.5,
            delay_s=0.25,
            message_kinds=("cs.reply",),
        )
        windows.drop(at=22.0, duration=6.0, rate=0.3)
        windows.delay(at=30.0, duration=6.0, extra_s=0.8, rate=0.6)
        windows.corrupt(at=38.0, duration=4.0, rate=0.2)
        period = self.fault_period_s
        rounds = math.ceil((self.warmup_s + self.measure_s) / period)
        plan = FaultPlan(
            replace(spec, repeat=rounds, period=period) for spec in windows
        )
        # Round-robin churn: one server after another loses its radio,
        # spread evenly over the whole run.  Radios go down rather than
        # whole nodes: a server that crashes while handling a request
        # raises NetworkError from its reply, which aborts the run.
        spacing = period * rounds / len(server_ids)
        for index, server_id in enumerate(server_ids):
            plan.link_flap(
                [server_id], at=5.0 + index * spacing, down_s=self.churn_down_s
            )
        return plan

    def client(self, client, servers, offset: int) -> Generator:
        cs = client.components["cs"]
        task = self.task
        for sequence in itertools.count():
            yield self.env.timeout(self.think_s)
            started = self.env.now
            args = {"from": client.id, "seq": sequence}
            reply: Optional[object] = None
            for attempt in range(APP_ATTEMPTS):
                # Move to the cell's other server on each retry, so a
                # server without its radio costs one attempt, not the
                # request.
                server = servers[(sequence + offset + attempt) % len(servers)]
                try:
                    reply = yield from cs.call(
                        server.id,
                        task.name,
                        args=args,
                        timeout=task.timeout,
                        retry=CHAOS_RETRY,
                    )
                    break
                except ReproError:
                    if attempt + 1 < APP_ATTEMPTS:
                        yield self.env.timeout(APP_BACKOFF_S * (attempt + 1))
            self.settle(
                started, ok=reply is not None, correct=reply == {"echo": args}
            )


# ---------------------------------------------------------------------------
# paradigm_mix
# ---------------------------------------------------------------------------

#: Paradigm kind weights; ``adaptive`` lets the selector rank all five.
KIND_WEIGHTS = {"cs": 0.3, "rev": 0.2, "cod": 0.2, "ma": 0.1, "adaptive": 0.2}
ADAPTIVE = ("cs", "rev", "cod", "ma", "local")


def task_result(name: str, payload: Dict[str, int]) -> Dict[str, object]:
    """What a paradigm_mix task body returns for ``payload``."""
    return {"task": name, "value": payload["n"] * 7 + len(name)}


def task_factory(name: str, work_units: float):
    def factory():
        def body(ctx, payload):
            ctx.charge(work_units)
            return task_result(name, payload)

        return body

    return factory


class ParadigmMix(Workload):
    """GPRS devices running a task mix through every paradigm."""

    warmup_s = 90.0
    measure_s = 240.0
    slice_s = 8.0
    devices = 100
    servers_per_device = 5
    names_per_class = 12
    quota_bytes = 300_000
    #: Operations planned per device: more than fit in the run.
    planned = 80
    think_s = 1.0

    def catalogue(self) -> Dict[tuple, InvocationTask]:
        tasks = {}
        for cls, spec in TASK_CLASSES.items():
            for index in range(self.names_per_class):
                name = f"{cls}-{index}"
                tasks[(cls, index)] = InvocationTask(
                    name=name,
                    factory=task_factory(name, spec["work_units"]),
                    work_units=spec["work_units"],
                    code_bytes=spec["code_bytes"],
                    request_bytes=spec["request_bytes"],
                    reply_bytes=spec["reply_bytes"],
                    result_bytes=spec["result_bytes"],
                    interactions=spec["interactions"],
                    expected_reuses=spec["expected_reuses"],
                )
        return tasks

    def build(self, scale: float) -> None:
        world = self.world
        tasks = self.catalogue()
        self.selectors = {
            kind: ParadigmSelector(
                available=list(ADAPTIVE) if kind == "adaptive" else [kind]
            )
            for kind in KIND_WEIGHTS
        }
        devices = self.scaled(self.devices, scale)
        mixes = self.mixes(devices)
        for index in range(devices):
            device = standard_host(
                world,
                f"dev-{index}",
                Position(10.0 * index, 0.0),
                [GPRS],
                cpu_speed=0.2,
                quota_bytes=self.quota_bytes,
            )
            device.node.interface(GPRS.name).attach()
            device.add_component(LocalExecution())
            servers = [
                standard_host(
                    world,
                    f"srv-{index}-{slot}",
                    Position(10.0 * index, 100.0 + 10.0 * slot),
                    [LAN],
                    fixed=True,
                    cpu_speed=2.0,
                )
                for slot in range(self.servers_per_device)
            ]
            mutual_trust(device, *servers)
            for server in servers:
                for task in tasks.values():
                    provision_task(server, task)
            ops = self.plan_ops(
                tasks, [server.id for server in servers], mixes[index]
            )
            self.env.process(self.client(device, ops), name=f"bench:{device.id}")

    def mixes(self, devices: int) -> List[List[tuple]]:
        """Each device's (task class, paradigm kind) pairs.

        The fleet's k-th pair of operations, taken across all devices,
        holds every pair in exact proportion to the class and kind
        weights, in seeded random order.  Drawing pairs independently
        would let the share of costly pairs (an agent touring five
        servers) swing from seed to seed; fixing the counts in every
        round leaves the seed only the order and the draws within a
        pair, whichever operation the run stops at.
        """
        per_round = 2 * devices
        quotas = {
            (cls, kind): per_round * spec["weight"] * weight
            for cls, spec in TASK_CLASSES.items()
            for kind, weight in KIND_WEIGHTS.items()
        }
        # Largest-remainder rounding: exact whenever the quotas are whole.
        counts = {pair: int(quota) for pair, quota in quotas.items()}
        short = per_round - sum(counts.values())
        for pair in sorted(quotas, key=lambda p: counts[p] - quotas[p])[:short]:
            counts[pair] += 1
        pairs = [pair for pair, count in counts.items() for _ in range(count)]
        rng = self.world.streams.stream("bench.mix")
        plans: List[List[tuple]] = [[] for _ in range(devices)]
        for _ in range(self.planned // 2):
            rng.shuffle(pairs)
            for device, plan in enumerate(plans):
                plan.extend(pairs[2 * device : 2 * device + 2])
        return plans

    def plan_ops(self, tasks, server_ids: List[str], pairs: List[tuple]) -> list:
        """One device's operations: task names Zipf-distributed within
        their class, targets drawn from the device's servers."""
        rng = self.world.streams.stream(f"bench.ops.{server_ids[0]}")
        names = zipf_indices(rng, self.names_per_class, len(pairs))
        ops = []
        for (cls, kind), index in zip(pairs, names):
            visits = TASK_CLASSES[cls].get("hosts_to_visit", 1)
            target = (
                list(server_ids[:visits])
                if visits > 1
                else rng.choice(server_ids)
            )
            payload = {"n": rng.randrange(1_000_000)}
            task = replace(tasks[(cls, index)], payload=payload)
            ops.append((task, kind, target))
        return ops

    def client(self, device, ops: list) -> Generator:
        for task, kind, target in ops:
            yield self.env.timeout(self.think_s)
            started = self.env.now
            try:
                outcome = yield from self.selectors[kind].select_and_invoke(
                    device, task, target=target
                )
            except ReproError:
                self.settle(started, ok=False)
                continue
            expected = task_result(task.name, task.payload)
            # CS, REV and MA answer a list of targets with one result
            # per target; COD and local run once, here.
            if isinstance(target, list) and outcome.paradigm in ("cs", "rev", "ma"):
                expected = [expected] * len(target)
            if self.env.now >= self.warmup_s:
                self.picks[outcome.paradigm] = (
                    self.picks.get(outcome.paradigm, 0) + 1
                )
            self.settle(started, ok=True, correct=outcome.result == expected)


# ---------------------------------------------------------------------------
# mesh_mobile / mesh_static
# ---------------------------------------------------------------------------


class CheckedPlanner:
    """Wraps a path planner and checks a sample of its answers.

    Every ``every``-th planned path must be a walk over links that
    exist at the instant it is planned.
    """

    def __init__(self, planner, network, every: int = 16) -> None:
        self.planner = planner
        self.network = network
        self.every = every
        self.calls = 0
        self.invalid = 0

    def path(self, source_id: str, target_id: str):
        path = self.planner.path(source_id, target_id)
        self.calls += 1
        if path is not None and self.calls % self.every == 0:
            nodes = self.network.nodes
            for a, b in zip(path, path[1:]):
                if not self.network.links_between(nodes[a], nodes[b]):
                    self.invalid += 1
                    break
        return path


class MeshStatic(Workload):
    """Multi-hop flows over 1,000 bare Wi-Fi nodes on an even grid,
    routed hop by hop through a hierarchical router; nobody moves, so
    planned routes stay cached."""

    nodes = 1_000
    area_m2 = 1_500_000.0
    slice_s = 0.5
    flows = 200
    interval_s = 1.0
    size_bytes = 256
    attempts = 3
    backoff_s = 1.0
    #: Every flow crosses this share of the grid's rows and columns, so
    #: each seed asks the router for the same amount of work per flow.
    flow_span = 0.3
    #: Draw a new (source, destination) pair for every send, rather than
    #: one per flow.
    fresh_pairs = False

    def build(self, scale: float) -> None:
        world = self.world
        count = self.scaled(self.nodes, scale)
        side = math.sqrt(self.area_m2 * count / self.nodes)
        area = Area(side, side)
        nodes = [
            world.add_node(f"n{index}", position, [WIFI_ADHOC])
            for index, position in enumerate(grid_positions(count, area))
        ]
        self.move(nodes, area)
        self.hierarchical = HierarchicalRouter(
            world.network, adhoc_only=True, metrics=world.metrics
        )
        self.planner = CheckedPlanner(self.hierarchical, world.network)
        self.router = Router(
            self.env, world.network, world.transport, table=self.planner
        )
        for flow in range(self.scaled(self.flows, scale)):
            rng = world.streams.stream(f"bench.flow.{flow}")
            self.env.process(self.flow(count, rng), name=f"bench:flow-{flow}")

    def move(self, nodes: list, area: Area) -> None:
        """Start node mobility: none here."""

    def endpoints(self, count: int, rng) -> tuple:
        """A random grid slot and the slot ``flow_span`` of the rows and
        columns further on (the grid_positions layout is row-major with
        ceil(sqrt(count)) columns)."""
        columns = math.ceil(math.sqrt(count))
        rows = math.ceil(count / columns)
        span = max(1, round(self.flow_span * columns))
        while True:
            row, column = rng.randrange(rows - span), rng.randrange(columns - span)
            target = (row + span) * columns + column + span
            if target < count:
                return row * columns + column, target

    def flow(self, count: int, rng) -> Generator:
        network = self.world.network
        for sequence in itertools.count():
            if sequence == 0 or self.fresh_pairs:
                source, target = (f"n{n}" for n in self.endpoints(count, rng))
            yield self.env.timeout(self.interval_s)
            started = self.env.now
            delivered = None
            for attempt in range(self.attempts):
                message = Message(
                    source=source,
                    destination=target,
                    kind="bench.flow",
                    payload=sequence,
                    size_bytes=self.size_bytes,
                )
                try:
                    yield self.router.send_multihop(message)
                except (Unreachable, TransportTimeout):
                    if attempt + 1 < self.attempts:
                        yield self.env.timeout(self.backoff_s * (attempt + 1))
                    continue
                delivered = message
                break
            if delivered is None:
                self.settle(started, ok=False)
                continue
            claim = network.node(target).inbox.get(
                predicate=lambda item, sent=delivered: item is sent
            )
            if claim.triggered:
                yield claim
            else:
                claim.cancel()
            self.settle(started, ok=True, correct=claim.triggered)

    def warm_up(self, lap: Callable[[], None]) -> None:
        super().warm_up(lap)
        self._before_routing = dict(self.hierarchical.stats)

    def routing_counts(self) -> Dict[str, float]:
        stats, before = self.hierarchical.stats, self._before_routing
        delta = {key: stats[key] - before[key] for key in stats}
        lookups = delta["hits"] + delta["misses"]
        return {
            "net.routing.paths": float(lookups + delta["flat"]),
            "net.routing.path_hit_ratio": ratio(delta["hits"], lookups),
            "net.routing.flat_fallbacks": float(delta["flat_fallback"]),
        }

    def outcome(self) -> Dict[str, object]:
        self.wrong += self.planner.invalid
        return super().outcome()


class MeshMobile(MeshStatic):
    """The same mesh and flow shape under random-waypoint mobility:
    every node moves every second, so topology changes on every tick,
    and each send draws a new pair of nodes, so most route plans miss
    the path cache.

    Nodes start from the even grid rather than random spots: random
    placement leaves voids around which the hop-by-hop re-planned
    corridor routes loop until the router gives up.
    """

    measure_s = 15.0
    flows = 250
    interval_s = 3.5
    # With a fixed pair per flow, the share of cached routes that a
    # seed's movements leave intact (and so the planning work) varied
    # by a fifth between seeds.
    fresh_pairs = True

    def move(self, nodes: list, area: Area) -> None:
        RandomWaypoint(self.env, nodes, area, self.world.streams)


WORKLOADS = {
    "chaos_fleet": ChaosFleet,
    "paradigm_mix": ParadigmMix,
    "mesh_mobile": MeshMobile,
    "mesh_static": MeshStatic,
}
