"""Callback-chain multi-hop relays against the process-based oracle.

Each scenario scripts one small world twice: once with the
:class:`~repro.net.Router` and :class:`~repro.net.Transport` under
test, and once with :class:`tests.net.relay_oracle.ProcessRelayRouter`
on :class:`tests.net.relay_oracle.InboxRelayTransport`, where relay
legs land in inboxes and each hop reclaims its leg.  It asserts that
everything observable matches: per-message timestamps, route and hop
count, the order in which senders and receivers resume, the loss-draw
sequence, the metrics snapshot, every node's cost meter, the spans and
the sampled metric series.  Run from the repo root (``python -m
pytest``) so ``tests`` imports as a package.

Receivers take only relayed messages (a filtered ``get``), as a
dispatcher that ignores relay plumbing would: the oracle's legs sit in
inboxes until their hop reclaims them.

The senders bump a metric each time they resume, so the sampled
series would show a sender resuming in a different event of the same
instant; a boundary is swept only once its whole instant has run, so
the series must match exactly.
"""

import dataclasses

import pytest

from repro.core import World
from repro.errors import NetworkError
from repro.net import (
    Message,
    NetworkNode,
    Position,
    Router,
    Transport,
    WIFI_ADHOC,
)
from repro.net.message import RELAY_KIND, fresh_message_ids
from repro.sim import Process

from tests.net.relay_oracle import InboxRelayTransport, ProcessRelayRouter

#: Wi-Fi with heavy transit loss, to force retransmissions and timeouts.
LOSSY_WIFI = dataclasses.replace(WIFI_ADHOC, loss=0.3)

#: The two implementations: (router class, transport class).
ORACLE = (ProcessRelayRouter, InboxRelayTransport)
UNDER_TEST = (Router, Transport)


class Script:
    """A scripted world: nodes with receivers, senders that log."""

    def __init__(self, classes, tracing):
        self.router_cls, transport_cls = classes
        world = World(seed=11, trace_enabled=tracing)
        world.transport = transport_cls(
            world.env,
            world.network,
            world.streams,
            trace=world.trace,
            metrics=world.metrics,
            tracer=world.tracer,
        )
        self.world = world
        self.env = world.env
        self.log = []
        self.messages = []
        self.recorder = world.sample_series(cadence=0.01, capacity=4096)
        self.default_router = self.router()
        rng = world.transport._rng
        draw = rng.random
        self.draws = []

        def recording_draw():
            value = draw()
            self.draws.append((self.env.now, value))
            return value

        rng.random = recording_draw

    def router(self, **options):
        world = self.world
        return self.router_cls(
            world.env,
            world.network,
            world.transport,
            metrics=world.metrics,
            **options,
        )

    def node(self, name, x, y=0.0, technology=WIFI_ADHOC):
        node = self.world.network.add_node(
            NetworkNode(self.env, name, Position(x, y), technologies=[technology])
        )
        self.env.process(self._receive(node))
        return node

    def _receive(self, node):
        while True:
            message = yield node.inbox.get(
                predicate=lambda m: m.kind != RELAY_KIND
            )
            self.log.append(
                ("recv", self.env.now, node.id, message.id, message.hops)
            )

    def send(self, source, destination, size=200, at=0.0, router=None):
        """One relay at ``at``, its outcome logged when the waiter resumes."""
        self.chain(source, destination, [size], at, router)

    def chain(self, source, destination, sizes, at=0.0, router=None):
        """Back-to-back relays: each starts when the previous resolves."""
        self.env.process(
            self._chain(source, destination, sizes, at, router)
        )

    def _chain(self, source, destination, sizes, at, router):
        if at:
            yield self.env.timeout(at)
        router = router or self.default_router
        for size in sizes:
            message = Message(source, destination, "data", size_bytes=size)
            self.messages.append(message)
            try:
                outcome = yield router.send_multihop(message)
            except (NetworkError, RuntimeError) as error:
                outcome = f"{type(error).__name__}: {error}"
            self.log.append(("sent", self.env.now, message.id, outcome))
            # A same-instant metric update, for the sampled series.
            self.world.metrics.counter("scenario.resumed").increment()

    def direct(self, source, destination, sizes, at=0.0):
        """Back-to-back one-hop reliable sends, logged like relays."""

        def run():
            yield self.env.timeout(at)
            for size in sizes:
                message = Message(source, destination, "data", size_bytes=size)
                self.messages.append(message)
                try:
                    outcome = yield self.world.transport.send_reliable(message)
                except NetworkError as error:
                    outcome = f"{type(error).__name__}: {error}"
                self.log.append(("direct", self.env.now, message.id, outcome))

        self.env.process(run())

    def at(self, delay, action):
        """Run ``action()`` ``delay`` seconds in."""

        def later():
            yield self.env.timeout(delay)
            action()

        self.env.process(later())

    def observe(self, until=8.0):
        self.world.run(until=until)
        tracer = self.world.tracer
        spans = tracer.finished_spans() + tracer.active_spans()
        return {
            "log": self.log,
            "messages": [
                (m.id, m.created_at, m.delivered_at, m.via, m.hops)
                for m in self.messages
            ],
            "draws": self.draws,
            "metrics": self.world.metrics.snapshot(),
            "costs": {
                node_id: dataclasses.asdict(node.costs)
                for node_id, node in self.world.network.nodes.items()
            },
            "spans": [span.to_dict() for span in spans],
            "series": self.recorder.as_dict(),
        }


# -- scenarios -----------------------------------------------------------------


def line(s, count, spacing=90.0, technology=WIFI_ADHOC):
    return [s.node(f"n{i}", spacing * i, technology=technology) for i in range(count)]


def clean_chain(s):
    line(s, 4)
    s.chain("n0", "n3", [200, 5_000, 60_000])
    s.chain("n3", "n0", [300, 300], at=0.5)
    s.send("n1", "n1", at=0.7)
    s.send("n1", "n2", at=0.9)


def detour(s, break_link):
    """s - a - b - d in a line plus a detour a - c - d; ``break_link``
    runs on b while the first leg is in the air, so a re-plans."""
    layout = {"s": (0, 0), "a": (80, 0), "b": (160, 0), "d": (240, 0)}
    layout["c"] = (160, 50)
    nodes = {name: s.node(name, x, y) for name, (x, y) in layout.items()}
    s.send("s", "d", 2_000)
    s.at(0.001, lambda: break_link(nodes["b"]))
    s.send("s", "d", 400, at=1.0)


def replan_moved(s):
    detour(s, lambda node: node.move_to(Position(1_000, 1_000)))


def replan_crashed(s):
    detour(s, lambda node: node.crash())


def loss(s):
    line(s, 4, technology=LOSSY_WIFI)
    for index in range(8):
        s.send("n0", "n3", 1_000, at=0.05 * index)
        s.send("n3", "n1", 500, at=0.05 * index)


def max_hops(s):
    line(s, 4)
    capped = s.router(max_hops=2)
    s.send("n0", "n3", router=capped)
    s.send("n0", "n2", router=capped, at=0.2)
    s.send("n0", "n1", router=s.router(max_hops=0), at=0.4)


def no_path(s):
    line(s, 3)
    s.node("far", 900)
    s.send("n0", "far")
    s.send("n0", "n2", at=0.01)


def destination_crashes(s):
    # n2 goes down half a latency after the second leg lands: its ack
    # still comes back, the relayed message is refused.
    nodes = line(s, 3, spacing=60.0)
    wire = 200 + 64
    transmit = WIFI_ADHOC.transfer_time(wire)
    latency = WIFI_ADHOC.latency_s
    landed = transmit + latency + latency + transmit + latency
    s.send("n0", "n2")
    s.at(landed + latency / 2, nodes[2].crash)
    s.at(1.0, nodes[2].restart)
    s.send("n0", "n2", at=1.5)


def same_instant(s):
    # Three sources relay through hub h at t=0, so their legs reach h
    # together and contend for its one radio; at 0.5 one source sends
    # three at once.
    for name, (x, y) in {
        "s0": (0, -60),
        "s1": (0, 0),
        "s2": (0, 60),
        "h": (80, 0),
        "d": (160, 0),
    }.items():
        s.node(name, x, y)
    for source in ("s0", "s1", "s2"):
        s.send(source, "d", 20_000)
    for size in (20_000, 300, 5_000):
        s.send("s1", "d", size, at=0.5)


def crowd(s):
    # A 4 x 4 grid, 70 m apart, on lossy Wi-Fi: every node relays a
    # chain of equal-sized messages across the grid and the middle of
    # each row also sends direct, so acknowledgements, hop events,
    # retransmissions and relay ends keep landing on the same instants.
    for row in range(4):
        for column in range(4):
            s.node(f"g{row}{column}", 70.0 * column, 70.0 * row, LOSSY_WIFI)
    for row in range(4):
        for column in range(4):
            target = f"g{3 - row}{(column + 2) % 4}"
            s.chain(f"g{row}{column}", target, [500] * 6)
        s.direct(f"g{row}1", f"g{row}2", [500] * 6)


def planner_error(s):
    line(s, 3)

    class Raising:
        def path(self, source_id, target_id):
            raise RuntimeError("planner exploded")

    s.send("n0", "n2", router=s.router(table=Raising()))
    s.send("n0", "n2", at=0.1)


SCENARIOS = {
    "clean_chain": clean_chain,
    "replan_moved": replan_moved,
    "replan_crashed": replan_crashed,
    "loss": loss,
    "max_hops": max_hops,
    "no_path": no_path,
    "destination_crashes": destination_crashes,
    "same_instant": same_instant,
    "crowd": crowd,
    "planner_error": planner_error,
}


def observe(classes, scenario, tracing):
    with fresh_message_ids():
        script = Script(classes, tracing)
        scenario(script)
        return script.observe()


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_callback_relays_match_process_relays(name, tracing):
    scenario = SCENARIOS[name]
    expected = observe(ORACLE, scenario, tracing)
    actual = observe(UNDER_TEST, scenario, tracing)
    for key in expected:
        assert actual[key] == expected[key], key
    # The scenario exercised what it names, and the senders' resumes
    # reached the sampled series.
    assert expected["log"]
    assert expected["series"]["series"]["scenario.resumed"]["values"][-1] > 0
    if tracing:
        assert any(s["name"] == "net.transmit" for s in expected["spans"])


def test_oracle_relays_are_processes():
    script = Script(ORACLE, tracing=False)
    line(script, 2)
    assert isinstance(
        script.default_router.send_multihop(Message("n0", "n1", "x")), Process
    )
    router = Router(script.env, script.world.network, script.world.transport)
    assert not isinstance(router.send_multihop(Message("n0", "n1", "x")), Process)
    script.world.run()


def test_scenarios_cover_every_outcome():
    """Across the scenarios the oracle sees deliveries, re-plans,
    retransmissions, lost legs and every way a relay fails."""
    outcomes = set()
    counters = {}
    for name, scenario in SCENARIOS.items():
        observed = observe(ORACLE, scenario, False)
        if name.startswith("replan"):
            # The re-plan from a routed the message round b, through c.
            assert observed["costs"]["c"]["bytes_sent"], name
        for key, value in observed["metrics"].items():
            counters[key] = counters.get(key, 0.0) + value
        outcomes.update(
            str(entry[3]) for entry in observed["log"] if entry[0] == "sent"
        )
    for counter in ("net.retransmissions", "net.messages_lost"):
        assert counters.get(counter, 0.0) > 0, counter
    assert {"0", "1", "2", "3"} <= outcomes
    failures = {outcome.split(" ")[0] for outcome in outcomes if ":" in outcome}
    assert {"TransportTimeout:", "Unreachable:", "RuntimeError:"} <= failures
    for reason in (
        "gave up after 2 hops",
        "gave up after 0 hops",
        "no path from n0 to far",
        "destination n2 is down",
    ):
        assert any(reason in outcome for outcome in outcomes), reason

