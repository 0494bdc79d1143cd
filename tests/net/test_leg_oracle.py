"""Callback-chain transport legs against the process-based oracle.

Each scenario scripts one small world twice, once on the
:class:`~repro.net.Transport` under test and once on
:class:`tests.net.leg_oracle.ProcessLegTransport`, and asserts that
everything observable matches: per-message timestamps, route and hop
count, the order in which senders and receivers resume, the loss-draw
sequence, the metrics snapshot, every node's cost meter, the spans
(including the ``t_air``/``t_sent`` stamps) and the sampled metric
series.  Run from the repo root (``python -m pytest``) so ``tests``
imports as a package.

Each sender bumps a metric as soon as its send resolves, so the
sampled series would show a sender resuming in a different event of
the same instant.  A boundary is swept only once its whole instant has
run, so no such difference is left; the last test pins that for the
two scenarios where the sampler used to see one.
"""

import dataclasses

import pytest

from repro.core import World
from repro.errors import NetworkError
from repro.faults import FaultPlan
from repro.net import (
    Message,
    NetworkNode,
    Position,
    Transport,
    WIFI_ADHOC,
)
from repro.net.message import fresh_message_ids
from repro.sim import Process

from tests.net.leg_oracle import ProcessLegTransport

#: Wi-Fi with heavy transit loss, to force retransmissions and timeouts.
LOSSY_WIFI = dataclasses.replace(WIFI_ADHOC, loss=0.35)


class Script:
    """A scripted world: nodes with receivers, senders that log."""

    def __init__(self, transport_cls, tracing):
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
        #: Count each sender resumption in a metric (see the
        #: known-difference test at the end).
        self.recorder = world.sample_series(cadence=0.01, capacity=4096)
        rng = world.transport._rng
        draw = rng.random
        self.draws = []

        def recording_draw():
            value = draw()
            self.draws.append((self.env.now, value))
            return value

        rng.random = recording_draw

    def node(self, name, x, technology=WIFI_ADHOC):
        node = self.world.network.add_node(
            NetworkNode(self.env, name, Position(x, 0), technologies=[technology])
        )
        self.env.process(self._receive(node))
        return node

    def _receive(self, node):
        while True:
            message = yield node.inbox.get()
            self.log.append(
                (
                    "recv",
                    self.env.now,
                    node.id,
                    message.id,
                    message.delivered_at,
                    message.via,
                    message.hops,
                    message.corrupted,
                )
            )

    def send(self, source, destination, size, reliable, at=0.0, attempts=4):
        """One send at ``at``, its outcome logged when the waiter resumes."""
        self.env.process(
            self._send_at(source, destination, size, reliable, at, attempts)
        )

    def chain(self, source, destination, sizes, reliable, at=0.0):
        """Back-to-back sends: each starts when the previous resolves."""
        self.env.process(self._chain(source, destination, sizes, reliable, at))

    def _send_at(self, source, destination, size, reliable, at, attempts):
        if at:
            yield self.env.timeout(at)
        yield from self._send_one(source, destination, size, reliable, attempts)

    def _chain(self, source, destination, sizes, reliable, at):
        if at:
            yield self.env.timeout(at)
        for size in sizes:
            yield from self._send_one(source, destination, size, reliable, 4)

    def _send_one(self, source, destination, size, reliable, attempts):
        message = Message(source, destination, "data", size_bytes=size)
        self.messages.append(message)
        transport = self.world.transport
        try:
            if reliable:
                outcome = yield transport.send_reliable(
                    message, max_attempts=attempts
                )
            else:
                outcome = yield transport.send(message)
        except NetworkError as error:
            outcome = f"{type(error).__name__}: {error}"
        self.log.append(("sent", self.env.now, message.id, outcome))
        # A same-instant metric update, for the sampled series.
        self.world.metrics.counter("scenario.resumed").increment()

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
                (m.id, m.created_at, m.delivered_at, m.via, m.hops, m.corrupted)
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


def uncontended(s):
    s.node("a", 0)
    s.node("b", 40)
    s.chain("a", "b", [200, 5_000, 64_000], reliable=False)
    s.chain("b", "a", [200, 5_000, 64_000], reliable=True, at=1.0)


def same_instant_senders(s):
    # Three senders book a's one radio at t=0, and three more at 0.5.
    for name, x in (("a", 0), ("b", 40), ("c", 80)):
        s.node(name, x)
    for at in (0.0, 0.5):
        s.send("a", "b", 20_000, reliable=False, at=at)
        s.send("a", "c", 20_000, reliable=True, at=at)
        s.send("a", "b", 300, reliable=True, at=at)


def loss(s):
    s.node("a", 0, LOSSY_WIFI)
    s.node("b", 30, LOSSY_WIFI)
    for index in range(12):
        s.send("a", "b", 1_000, reliable=True, at=0.05 * index, attempts=2)
        s.send("b", "a", 1_000, reliable=False, at=0.05 * index)


def crash_mid_transfer(s):
    s.node("a", 0)
    b = s.node("b", 40)
    s.send("a", "b", 1_000_000, reliable=False)
    s.send("a", "b", 400_000, reliable=True)
    s.at(0.5, b.crash)
    s.at(2.5, b.restart)
    s.send("b", "a", 100, reliable=True, at=0.6)


def move_out_of_range(s):
    s.node("a", 0)
    b = s.node("b", 40)
    s.send("a", "b", 1_000_000, reliable=False)
    s.send("a", "b", 400_000, reliable=True)
    s.at(0.5, lambda: b.move_to(Position(1_000, 0)))
    s.at(4.0, lambda: b.move_to(Position(40, 0)))
    s.send("a", "b", 500, reliable=True, at=4.5)


def unreachable_and_oversized(s):
    for name, x in (("a", 0), ("b", 40), ("far", 900)):
        s.node(name, x)
    s.send("a", "far", 100, reliable=False)
    s.send("a", "far", 100, reliable=True)
    s.send("a", "b", WIFI_ADHOC.max_payload + 1, reliable=True)
    s.send("a", "b", 100, reliable=True, at=0.01)


def fault_window(kind):
    def scenario(s):
        for name, x in (("a", 0), ("b", 40), ("c", 80)):
            s.node(name, x)
        plan = FaultPlan()
        if kind == "drop":
            plan.drop(at=0.1, duration=1.5, rate=0.5)
        elif kind == "duplicate":
            plan.duplicate(at=0.1, duration=1.5, rate=0.5)
            plan.duplicate(at=0.1, duration=1.5, rate=0.5, delay_s=0.02)
        elif kind == "delay":
            plan.delay(at=0.1, duration=1.5, extra_s=0.03, rate=0.5)
        else:
            plan.corrupt(at=0.1, duration=1.5, rate=0.5)
        plan.inject(s.world)
        for index in range(10):
            at = 0.1 + 0.12 * index
            s.send("a", "b", 2_000, reliable=index % 2 == 0, at=at)
            s.send("c", "b", 800, reliable=True, at=at)
            s.send("b", "a", 300, reliable=False, at=at)
        s.chain("a", "c", [400] * 12, reliable=True, at=0.1)

    return scenario


SCENARIOS = {
    "uncontended": uncontended,
    "same_instant_senders": same_instant_senders,
    "loss": loss,
    "crash_mid_transfer": crash_mid_transfer,
    "move_out_of_range": move_out_of_range,
    "unreachable_and_oversized": unreachable_and_oversized,
    "fault_drop": fault_window("drop"),
    "fault_duplicate": fault_window("duplicate"),
    "fault_delay": fault_window("delay"),
    "fault_corrupt": fault_window("corrupt"),
}


def observe(transport_cls, scenario, tracing):
    with fresh_message_ids():
        script = Script(transport_cls, tracing)
        scenario(script)
        return script.observe()


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_callback_legs_match_process_legs(name, tracing):
    scenario = SCENARIOS[name]
    expected = observe(ProcessLegTransport, scenario, tracing)
    actual = observe(Transport, scenario, tracing)
    for key in expected:
        assert actual[key] == expected[key], key
    # The scenario exercised what it names.
    assert expected["log"] and expected["draws"]
    if tracing:
        transmits = [s for s in expected["spans"] if s["name"] == "net.transmit"]
        assert transmits
        assert all("t_air" in s["attributes"] for s in transmits)


def test_oracle_legs_are_processes():
    world = World(seed=1)
    oracle = ProcessLegTransport(world.env, world.network, world.streams)
    for name, x in (("a", 0), ("b", 40)):
        world.network.add_node(
            NetworkNode(world.env, name, Position(x, 0), technologies=[WIFI_ADHOC])
        )
    assert isinstance(oracle.send(Message("a", "b", "x")), Process)
    assert isinstance(oracle.send_reliable(Message("a", "b", "x")), Process)
    assert not isinstance(world.transport.send(Message("a", "b", "x")), Process)
    world.run()


def test_scenarios_cover_every_outcome():
    """Across the scenarios the oracle sees deliveries, losses,
    retransmissions, timeouts, unreachable peers and every fault kind."""
    seen = {}
    for name, scenario in SCENARIOS.items():
        observed = observe(ProcessLegTransport, scenario, False)
        for key, value in observed["metrics"].items():
            seen[key] = seen.get(key, 0.0) + value
        seen.setdefault("outcomes", set()).update(
            str(entry[3]).split(":")[0] for entry in observed["log"]
            if entry[0] == "sent"
        )
    for counter in (
        "net.messages_delivered",
        "net.messages_lost",
        "net.retransmissions",
        "net.unreachable",
        "faults.messages_dropped",
        "faults.messages_duplicated",
        "faults.messages_delayed",
        "faults.messages_corrupted",
    ):
        assert seen.get(counter, 0.0) > 0, counter
    assert {"True", "False", "1", "2", "TransportTimeout", "Unreachable",
            "MessageTooLarge"} <= seen["outcomes"]


@pytest.mark.parametrize("name", ["uncontended", "fault_duplicate"])
def test_known_difference_is_a_same_instant_sample(name):
    """The one difference this oracle used to pin is gone.  The sender
    resumes inside the acknowledgement event, where the process leg
    resumed in a process-done event right after it, and a duplicate
    delayed by exactly the link latency lands after the ack instead of
    before it.  The sampler once read after the *first* event at or past
    a boundary, so the sender's same-instant bump landed on either side
    of a sample; now a boundary is swept once its whole instant has run,
    and every observable, the series included, is equal."""
    scenario = SCENARIOS[name]
    expected = observe(ProcessLegTransport, scenario, False)
    actual = observe(Transport, scenario, False)
    assert actual == expected
    resumed = expected["series"]["series"]["scenario.resumed"]
    sends = [entry for entry in expected["log"] if entry[0] == "sent"]
    assert resumed["values"][-1] == len(sends)
