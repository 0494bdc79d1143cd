"""Request/reply on the reply event alone against the ``any_of`` oracle.

Each scenario scripts one small world twice, once with
:class:`~repro.core.MobileHost` and :class:`~repro.core.AgentRuntime`
and once with :class:`tests.core.request_oracle.RaceRequestHost` and
:class:`tests.core.request_oracle.RaceAgentRuntime`, and asserts that
everything observable matches: each request's outcome and the instant
its caller resumed, the metrics snapshot (``host.request_rtt``,
``host.request_timeouts``, ``host.stale_replies``, ``host.unhandled``
among them), the spans and the sampled metric series, to which every
caller adds a bump of its own as it resumes.  Run from the
repo root (``python -m pytest``) so ``tests`` imports as a package.

The radio is dyadic — a power-of-two bit rate and latency — so every
simulated instant is an exact float and a reply can be made to land
on the very instant its deadline expires.
"""

import dataclasses

import pytest

from repro.core import AgentRuntime, Component, InvocationTask, MobileHost, World
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.net import Message, Position, WIFI_ADHOC
from repro.net.message import fresh_message_ids
from repro.security import OPEN_POLICY

from tests.core.request_oracle import RaceAgentRuntime, RaceRequestHost

#: Loss-free Wi-Fi whose transfer times and latency are exact binary
#: fractions.
DYADIC_WIFI = dataclasses.replace(
    WIFI_ADHOC, bandwidth_bps=2.0**22, latency_s=2.0**-7, loss=0.0
)

RACE = (RaceRequestHost, RaceAgentRuntime)
UNDER_TEST = (MobileHost, AgentRuntime)


class Echo(Component):
    """Replies ``echo.pong`` after holding each request ``hold`` s."""

    kind = "echo"

    def __init__(self, hold=0.0):
        super().__init__()
        self.hold = hold

    def handlers(self):
        return {"echo.ping": self._handle}

    def _handle(self, message):
        host = self.require_host()
        if self.hold:
            yield host.env.timeout(self.hold)
        yield host.reply_to(
            message, "echo.pong", payload=message.payload, size_bytes=64
        )


class Script:
    """A scripted world whose callers log outcomes and resume times."""

    def __init__(self, classes, tracing):
        self.host_cls, self.runtime_cls = classes
        world = World(seed=5, trace_enabled=tracing)
        world.transport._rng.random = lambda: 0.999
        self.world = world
        self.env = world.env
        self.log = []
        #: Bumped by every caller as it resumes: a same-instant metric
        #: update, for the sampled series.
        self.resumed = world.metrics.counter("scenario.resumed")
        self.recorder = world.sample_series(cadence=2.0**-6, capacity=4096)
        self.hosts = {}

    def host(self, name, x, hold=None, agents=False):
        node = self.world.add_node(name, Position(x, 0), [DYADIC_WIFI])
        host = self.host_cls(self.world, node, policy=OPEN_POLICY)
        if hold is not None:
            host.add_component(Echo(hold))
        if agents:
            host.add_component(self.runtime_cls())
            host.register_service(
                "echo", lambda args, host: (args, 64), work_units=500.0
            )
        self.hosts[name] = host
        return host

    def request(self, label, client, server, at=0.0, timeout=1.0):
        """One ``echo.ping`` request ``at`` seconds in."""

        def caller():
            if at:
                yield self.env.timeout(at)
            message = Message(
                client, server, "echo.ping", payload=label, size_bytes=100
            )
            try:
                reply = yield from self.hosts[client].request(
                    message, timeout=timeout
                )
            except ReproError as error:
                outcome = (type(error).__name__, str(error))
            else:
                outcome = ("reply", reply.kind, reply.payload, reply.id)
            self.log.append((label, self.env.now, outcome))
            self.resumed.increment()

        self.env.process(caller())

    def trip(self, label, client, server, timeout):
        """One mobile-agent invocation of ``echo`` on ``server``."""

        def caller():
            runtime = self.hosts[client].component("agents")
            task = InvocationTask(name="echo", payload=label, timeout=timeout)
            try:
                result = yield from runtime.invoke(task, server)
            except ReproError as error:
                outcome = (type(error).__name__, str(error))
            else:
                outcome = ("result", result)
            self.log.append((label, self.env.now, outcome))
            self.resumed.increment()

        self.env.process(caller())

    def at(self, delay, action):
        def later():
            yield self.env.timeout(delay)
            action()

        self.env.process(later())

    def observe(self, until=40.0):
        self.world.run(until=until)
        tracer = self.world.tracer
        spans = tracer.finished_spans() + tracer.active_spans()
        return {
            "log": self.log,
            "metrics": self.world.metrics.snapshot(),
            "spans": [span.to_dict() for span in spans],
            "series": self.recorder.as_dict(),
        }


def observe(classes, scenario, tracing):
    with fresh_message_ids():
        script = Script(classes, tracing)
        scenario(script)
        return script.observe()


# -- the same-instant deadline ---------------------------------------------------


def calibrate(hold):
    """(timeout, reply instant) making a request whose server holds it
    ``hold`` s time out on the very instant its reply is delivered."""
    with fresh_message_ids():
        script = Script(UNDER_TEST, tracing=False)
        client = script.host("a", 0)
        script.host("b", 40, hold=hold)
        acked = []
        send = client.send

        def send_and_note_ack(message, reliable=True):
            event = send(message, reliable)
            event.callbacks.append(lambda _event: acked.append(script.env.now))
            return event

        client.send = send_and_note_ack
        script.request("calibration", "a", "b", timeout=30.0)
        script.observe()
    (_label, resumed, outcome), = script.log
    assert outcome[0] == "reply"
    (ack,) = acked
    return resumed - ack, resumed


def same_instant(hold):
    def scenario(s):
        timeout, _ = calibrate(hold)
        s.host("a", 0)
        s.host("b", 40, hold=hold)
        s.request("tie", "a", "b", timeout=timeout)
        # A second exchange afterwards still correlates normally.
        s.request("after", "a", "b", at=2.0)

    return scenario


# -- scenarios -------------------------------------------------------------------


def clean_echo(s):
    s.host("a", 0)
    s.host("b", 40, hold=0.0)
    for index in range(3):
        s.request(f"echo{index}", "a", "b", at=0.25 * index)


def server_down(s):
    s.host("a", 0)
    b = s.host("b", 40, hold=0.25)
    s.request("down", "a", "b", timeout=1.0)
    s.at(0.125, b.node.crash)
    s.at(2.0, b.node.restart)
    s.request("back", "a", "b", at=2.5)


def lost_reply(s):
    s.host("a", 0)
    s.host("b", 40, hold=0.0)
    FaultPlan().drop(
        at=0.0, duration=0.03125, rate=1.0, message_kinds=["echo.pong"]
    ).inject(s.world)
    s.request("lost", "a", "b", timeout=4.0)


def duplicated_reply(s):
    s.host("a", 0)
    s.host("b", 40, hold=0.0)
    FaultPlan().duplicate(
        at=0.0, duration=1.0, rate=1.0, delay_s=0.0625,
        message_kinds=["echo.pong"],
    ).inject(s.world)
    s.request("dup", "a", "b")
    s.request("dup-next", "a", "b", at=0.5)


def corrupted_reply(s):
    s.host("a", 0)
    s.host("b", 40, hold=0.0)
    FaultPlan().corrupt(
        at=0.0, duration=1.0, rate=1.0, message_kinds=["echo.pong"]
    ).inject(s.world)
    s.request("corrupt", "a", "b", timeout=0.5)
    s.request("clean", "a", "b", at=1.5)


def late_reply(s):
    s.host("a", 0)
    s.host("b", 40, hold=0.0)
    FaultPlan().delay(
        at=0.0, duration=1.0, extra_s=1.5, message_kinds=["echo.pong"]
    ).inject(s.world)
    s.request("late", "a", "b", timeout=0.5)


def unreachable(s):
    s.host("a", 0)
    s.host("far", 5_000, hold=0.0)
    s.request("far", "a", "far")


def _reply_gap():
    """How much later c's reply reaches a than b's when a asks both at
    once and both servers hold the request equally long."""
    with fresh_message_ids():
        script = Script(UNDER_TEST, tracing=False)
        script.host("a", 0)
        script.host("b", 40, hold=0.25)
        script.host("c", -40, hold=0.25)
        script.request("b", "a", "b")
        script.request("c", "a", "c")
        script.observe()
    resumed = {label: t for label, t, _outcome in script.log}
    return resumed["c"] - resumed["b"]


def same_instant_replies(s):
    # a's radio sends the request to b first; b holds it that much
    # longer, so both replies reach a's inbox in one instant.
    s.host("a", 0)
    s.host("b", 40, hold=0.25 + _reply_gap())
    s.host("c", -40, hold=0.25)
    s.request("b", "a", "b")
    s.request("c", "a", "c")


def same_instant_requests(s):
    s.host("a", 0)
    s.host("b", 40, hold=0.0)
    s.host("c", 80)
    for label, client in (("a1", "a"), ("a2", "a"), ("c1", "c")):
        s.request(label, client, "b", at=0.25)


def ma_trip_returns(s):
    s.host("a", 0, agents=True)
    s.host("b", 40, agents=True)
    s.trip("trip", "a", "b", timeout=30.0)


def ma_trip_times_out(s):
    s.host("a", 0, agents=True)
    s.host("b", 40, agents=True)
    s.trip("short", "a", "b", timeout=0.0078125)


SCENARIOS = {
    "clean_echo": clean_echo,
    "server_down": server_down,
    "lost_reply": lost_reply,
    "duplicated_reply": duplicated_reply,
    "corrupted_reply": corrupted_reply,
    "late_reply": late_reply,
    "same_instant_reply_first": same_instant(0.0),
    "same_instant_deadline_first": same_instant(0.25),
    "unreachable": unreachable,
    "same_instant_requests": same_instant_requests,
    "same_instant_replies": same_instant_replies,
    "ma_trip_returns": ma_trip_returns,
    "ma_trip_times_out": ma_trip_times_out,
}


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reply_event_requests_match_any_of_race(name, tracing):
    scenario = SCENARIOS[name]
    expected = observe(RACE, scenario, tracing)
    actual = observe(UNDER_TEST, scenario, tracing)
    for key in expected:
        assert actual[key] == expected[key], key
    assert expected["log"]
    resumed = expected["series"]["series"]["scenario.resumed"]
    assert resumed["values"][-1] == len(expected["log"])
    if tracing:
        assert any(s["name"] == "host.request" for s in expected["spans"])


def _counts(name):
    observed = observe(RACE, SCENARIOS[name], False)
    outcomes = {label: outcome[0] for label, _t, outcome in observed["log"]}
    return outcomes, observed["metrics"]


def test_scenarios_exercise_what_they_name():
    outcomes, metrics = _counts("clean_echo")
    assert set(outcomes.values()) == {"reply"}
    assert metrics["host.request_rtt.count"] == 3

    outcomes, metrics = _counts("server_down")
    assert outcomes == {"down": "RequestTimeout", "back": "reply"}

    outcomes, metrics = _counts("lost_reply")
    assert outcomes == {"lost": "reply"}
    assert metrics["faults.messages_dropped"] >= 1
    assert metrics["net.retransmissions"] >= 1

    outcomes, metrics = _counts("duplicated_reply")
    assert outcomes == {"dup": "reply", "dup-next": "reply"}
    assert metrics["host.stale_replies"] == 2

    outcomes, metrics = _counts("corrupted_reply")
    assert outcomes == {"corrupt": "RequestTimeout", "clean": "reply"}
    assert metrics["host.corrupt_discarded"] >= 1

    outcomes, metrics = _counts("late_reply")
    assert outcomes == {"late": "RequestTimeout"}
    assert metrics["host.stale_replies"] == 1

    outcomes, metrics = _counts("unreachable")
    assert outcomes == {"far": "Unreachable"}

    outcomes, metrics = _counts("same_instant_requests")
    assert set(outcomes.values()) == {"reply"} and len(outcomes) == 3

    observed = observe(RACE, same_instant_replies, False)
    (b, t_b, b_outcome), (c, t_c, c_outcome) = observed["log"]
    assert (b, c) == ("b", "c") and t_b == t_c
    assert b_outcome[0] == c_outcome[0] == "reply"

    outcomes, _ = _counts("ma_trip_returns")
    assert outcomes == {"trip": "result"}

    outcomes, metrics = _counts("ma_trip_times_out")
    assert outcomes == {"short": "MigrationError"}
    assert metrics["agents.completed"] >= 1  # agents came home late


@pytest.mark.parametrize(
    "name, stale",
    [("same_instant_reply_first", 0), ("same_instant_deadline_first", 1)],
)
def test_reply_lands_on_the_deadline_instant(name, stale):
    """The tie times out in both queue orders.  When the reply was queued
    before the deadline it reaches the dispatcher while the id is still
    pending (not stale); queued after it, the caller has already closed
    the id and the reply counts as stale."""
    hold = 0.0 if name.endswith("reply_first") else 0.25
    _timeout, tie = calibrate(hold)
    for classes in (RACE, UNDER_TEST):
        observed = observe(classes, SCENARIOS[name], False)
        resumed = {label: (t, outcome[0]) for label, t, outcome in observed["log"]}
        assert resumed["tie"] == (tie, "RequestTimeout")
        assert resumed["after"][1] == "reply"
        assert observed["metrics"]["host.stale_replies"] == stale
        assert observed["metrics"]["host.unhandled"] == 0
