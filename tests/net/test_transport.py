"""Unit tests for the transport: timing, loss, cost, reliability, broadcast."""

import gc

import pytest

from repro.errors import (
    MessageTooLarge,
    NetworkError,
    TransportTimeout,
    Unreachable,
)
from repro.net import (
    BLUETOOTH,
    GPRS,
    HEADER_BYTES,
    LAN,
    Message,
    Network,
    NetworkNode,
    Position,
    Transport,
    WIFI_ADHOC,
)
from repro.net import network as network_module
from repro.net.cost import CostMeter
from repro.net.transport import ACK_BYTES
from repro.obs import SpanTracer
from repro.sim import Environment, RandomStreams


def build(loss_free=True):
    env = Environment()
    network = Network(env)
    streams = RandomStreams(7)
    transport = Transport(env, network, streams)
    return env, network, transport


def add_pair(env, network, distance=10.0):
    a = network.add_node(
        NetworkNode(env, "a", Position(0, 0), technologies=[WIFI_ADHOC])
    )
    b = network.add_node(
        NetworkNode(env, "b", Position(distance, 0), technologies=[WIFI_ADHOC])
    )
    return a, b


class TestSend:
    def test_delivery_time_matches_model(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        message = Message("a", "b", "test", payload="hi", size_bytes=10_000)

        def run(env):
            delivered = yield transport.send(message)
            return delivered, env.now

        process = env.process(run(env))
        delivered, finished = env.run(until=process)
        assert delivered is True
        wire = 10_000 + HEADER_BYTES
        expected = wire * 8 / WIFI_ADHOC.bandwidth_bps + WIFI_ADHOC.latency_s
        assert finished == pytest.approx(expected)

    def test_message_lands_in_inbox(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        message = Message("a", "b", "ping")

        def run(env):
            yield transport.send(message)
            received = yield b.inbox.get()
            return received

        process = env.process(run(env))
        received = env.run(until=process)
        assert received.kind == "ping"
        assert received.via == "802.11b-adhoc"

    def test_unreachable_raises(self):
        env, network, transport = build()
        add_pair(env, network, distance=500.0)
        message = Message("a", "b", "ping")

        def run(env):
            yield transport.send(message)

        env.process(run(env))
        with pytest.raises(Unreachable):
            env.run()

    def test_costs_accounted_both_ends(self):
        env, network, transport = build()
        phone = network.add_node(
            NetworkNode(env, "a", Position(0, 0), technologies=[GPRS])
        )
        srv = network.add_node(
            NetworkNode(env, "b", Position(0, 0), technologies=[LAN], fixed=True)
        )
        phone.interface("gprs").attach()
        message = Message("a", "b", "upload", size_bytes=1_000_000 - HEADER_BYTES)

        def run(env):
            yield transport.send(message)

        env.process(run(env))
        env.run()
        assert phone.costs.bytes_sent["gprs"] == 1_000_000
        assert srv.costs.bytes_received["lan"] == 1_000_000
        assert phone.costs.money == pytest.approx(GPRS.cost_per_mb)
        assert srv.costs.money == 0.0

    def test_oversized_message_rejected(self):
        env, network, transport = build()
        add_pair(env, network)
        huge = Message("a", "b", "blob", size_bytes=WIFI_ADHOC.max_payload + 1)

        def run(env):
            yield transport.send(huge)

        env.process(run(env))
        with pytest.raises(MessageTooLarge):
            env.run()

    def test_crash_mid_transfer_drops(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        message = Message("a", "b", "big", size_bytes=1_000_000)

        def run(env):
            delivered = yield transport.send(message)
            return delivered

        def killer(env):
            yield env.timeout(0.5)
            b.crash()

        process = env.process(run(env))
        env.process(killer(env))
        assert env.run(until=process) is False

    def test_move_out_of_range_mid_transfer_drops(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        message = Message("a", "b", "big", size_bytes=1_000_000)

        def run(env):
            delivered = yield transport.send(message)
            return delivered

        def mover(env):
            yield env.timeout(0.5)
            b.move_to(Position(1000, 0))

        process = env.process(run(env))
        env.process(mover(env))
        assert env.run(until=process) is False

    def test_radio_serialises_concurrent_sends(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        # two 5e5-byte messages at 5 Mbps = 0.8s each transmission
        times = []

        def run(env, message):
            yield transport.send(message)
            times.append(env.now)

        env.process(run(env, Message("a", "b", "m1", size_bytes=500_000)))
        env.process(run(env, Message("a", "b", "m2", size_bytes=500_000)))
        env.run()
        assert len(times) == 2
        # Second message cannot finish at the same instant: radio was booked.
        assert times[1] > times[0]
        assert times[1] - times[0] == pytest.approx(
            (500_000 + HEADER_BYTES) * 8 / WIFI_ADHOC.bandwidth_bps, rel=0.01
        )


class TestNegativeSize:
    """A negative size is refused before anything is booked or billed."""

    @pytest.mark.parametrize("reliable", [False, True])
    def test_negative_size_fails_before_booking_the_radio(self, reliable):
        env, network, transport = build()
        a, b = add_pair(env, network)
        message = Message("a", "b", "x", size_bytes=-1000)
        send = transport.send_reliable if reliable else transport.send
        done = send(message)
        with pytest.raises(ValueError):
            env.run(until=done)
        assert a.interface(WIFI_ADHOC.name).busy_until == 0.0
        assert a.costs.bytes_sent == {} and b.costs.bytes_received == {}

    @pytest.mark.parametrize("transfer_time", [-0.001, float("nan")])
    def test_radio_refuses_a_backward_booking(self, transfer_time):
        env, network, _ = build()
        a, _ = add_pair(env, network)
        interface = a.interface(WIFI_ADHOC.name)
        interface.reserve(0.25)
        with pytest.raises(ValueError):
            interface.reserve(transfer_time)
        assert interface.busy_until == 0.25

    def test_meter_refuses_a_negative_transfer(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            meter.account_transfer(GPRS, -1, sent=True)
        assert meter.bytes_sent == {} and meter.money == 0.0


class TestBillingInstants:
    """Each end is billed at a fixed instant: the sender in the event
    that books its radio, the receiver on delivery, the acknowledgement
    bytes at the acknowledgement."""

    @staticmethod
    def sent_counter(transport, node_id):
        return transport.metrics.snapshot().get(
            f'net.bytes_sent{{node="{node_id}"}}', 0.0
        )

    def test_queued_transfer_is_billed_in_its_booking_event(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        first = Message("a", "b", "first", size_bytes=500_000)
        queued = Message("a", "b", "queued", size_bytes=1_000)
        transport.send(first)
        transport.send(queued)
        # Both bookings ran in this event; ``queued`` goes on air only
        # when ``first`` ends, 0.8 s from now.
        assert a.interface(WIFI_ADHOC.name).busy_until > 0.8
        billed = first.wire_size + queued.wire_size
        assert a.costs.bytes_sent == {WIFI_ADHOC.name: billed}
        assert self.sent_counter(transport, "a") == billed
        assert b.costs.bytes_received == {}
        env.run()
        assert a.costs.bytes_sent == {WIFI_ADHOC.name: billed}
        assert self.sent_counter(transport, "a") == billed
        assert b.costs.bytes_received == {WIFI_ADHOC.name: billed}

    def test_each_lost_attempt_is_billed_once(self):
        env, network, transport = build()
        a, b = add_pair(env, network)
        transport._rng.random = lambda: 0.0  # lose every attempt
        message = Message("a", "b", "data", size_bytes=1_000)
        done = transport.send_reliable(message, max_attempts=3)
        with pytest.raises(TransportTimeout):
            env.run(until=done)
        wire = message.wire_size
        assert a.costs.bytes_sent == {WIFI_ADHOC.name: 3 * wire}
        assert self.sent_counter(transport, "a") == 3 * wire
        # Nothing was delivered; each attempt's ack timeout billed one
        # acknowledgement at both ends.
        assert b.costs.bytes_received == {}
        assert b.costs.bytes_sent == {WIFI_ADHOC.name: 3 * ACK_BYTES}
        assert a.costs.bytes_received == {WIFI_ADHOC.name: 3 * ACK_BYTES}

    def test_receiver_is_billed_on_delivery_and_ack_bytes_at_the_ack(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # never lose
        a, b = add_pair(env, network)
        message = Message("a", "b", "data", size_bytes=1_000)
        done = transport.send_reliable(message)
        wire = message.wire_size
        latency = WIFI_ADHOC.latency_s
        arrival = WIFI_ADHOC.transfer_time(wire) + latency
        assert a.costs.bytes_sent == {WIFI_ADHOC.name: wire}
        env.run(until=arrival)  # every event before the arrival
        assert b.costs.bytes_received == {}
        env.run(until=arrival + latency / 2)
        assert b.costs.bytes_received == {WIFI_ADHOC.name: wire}
        assert b.costs.bytes_sent == {} and a.costs.bytes_received == {}
        assert env.run(until=done) == 1
        assert env.now == pytest.approx(arrival + latency)
        assert b.costs.bytes_sent == {WIFI_ADHOC.name: ACK_BYTES}
        assert a.costs.bytes_received == {WIFI_ADHOC.name: ACK_BYTES}
        assert a.costs.bytes_sent == {WIFI_ADHOC.name: wire}


class TestSharedRadio:
    """Unicast legs and broadcasts book one radio, first come first
    served: a transfer goes on air when the radio's last booked
    transfer ends, or at once on an idle radio."""

    def _traced(self):
        env = Environment()
        network = Network(env)
        tracer = SpanTracer(now=lambda: env.now, enabled=True)
        transport = Transport(env, network, RandomStreams(7), tracer=tracer)
        transport._rng.random = lambda: 0.99  # never lose
        a, _ = add_pair(env, network)
        return env, transport, tracer, a.interface(WIFI_ADHOC.name)

    def test_send_broadcast_send_chain_on_one_radio(self):
        env, transport, tracer, radio = self._traced()
        t0 = 1.0
        booked = []

        def run(env):
            yield env.timeout(t0)
            transport.send(Message("a", "b", "m1", size_bytes=5_000))
            cast = transport.broadcast(radio.node, "hello", size_bytes=2_000)
            # The broadcast books the radio in its start event, which
            # runs before this same-instant timeout.
            yield env.timeout(0)
            booked.append(radio.busy_until)
            transport.send(Message("a", "b", "m2", size_bytes=300))
            heard = yield cast
            assert heard == ["b"]

        env.process(run(env))
        env.run()
        tt1 = WIFI_ADHOC.transfer_time(5_000 + HEADER_BYTES)
        tt2 = WIFI_ADHOC.transfer_time(2_000 + 64)
        tt3 = WIFI_ADHOC.transfer_time(300 + HEADER_BYTES)
        spans = {
            span.attributes["msg"]: span
            for span in tracer.finished_spans()
            if span.name == "net.transmit"
        }
        first, second = spans["m1"].attributes, spans["m2"].attributes
        assert spans["m1"].start == spans["m2"].start == t0
        assert first["t_air"] == t0
        assert booked == [t0 + tt1 + tt2]
        assert second["t_air"] == t0 + tt1 + tt2
        assert second["t_sent"] == pytest.approx(t0 + tt1 + tt2 + tt3)
        assert radio.busy_until == t0 + tt1 + tt2 + tt3

    def test_send_on_an_idle_radio_goes_on_air_at_once(self):
        env, transport, tracer, radio = self._traced()

        def run(env):
            yield env.timeout(2.5)
            yield transport.send(Message("a", "b", "m", size_bytes=1_000))

        env.process(run(env))
        env.run()
        (span,) = tracer.finished_spans()
        assert span.start == span.attributes["t_air"] == 2.5
        assert span.attributes["t_sent"] == pytest.approx(
            2.5 + WIFI_ADHOC.transfer_time(1_000 + HEADER_BYTES)
        )


class TestReliableSend:
    def test_succeeds_first_attempt_on_clean_link(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # never lose
        add_pair(env, network)
        message = Message("a", "b", "data", size_bytes=100)

        def run(env):
            attempts = yield transport.send_reliable(message)
            return attempts

        process = env.process(run(env))
        assert env.run(until=process) == 1

    def test_retries_on_loss_then_succeeds(self):
        env, network, transport = build()
        draws = iter([0.0, 0.0, 0.99])  # lose, lose, deliver
        transport._rng.random = lambda: next(draws)
        a, b = add_pair(env, network)
        message = Message("a", "b", "data", size_bytes=100)

        def run(env):
            attempts = yield transport.send_reliable(message)
            return attempts

        process = env.process(run(env))
        assert env.run(until=process) == 3
        assert transport.metrics.counter("net.retransmissions").value == 2

    def test_exhausted_attempts_raise_timeout(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.0  # always lose
        add_pair(env, network)
        message = Message("a", "b", "data", size_bytes=100)

        def run(env):
            yield transport.send_reliable(message, max_attempts=2)

        env.process(run(env))
        with pytest.raises(TransportTimeout):
            env.run()

    def test_unreachable_from_start(self):
        env, network, transport = build()
        add_pair(env, network, distance=1000.0)

        def run(env):
            yield transport.send_reliable(Message("a", "b", "x"))

        env.process(run(env))
        with pytest.raises(Unreachable):
            env.run()

    @pytest.mark.parametrize("reliable", [False, True])
    def test_unreachable_counted_and_traced_alike(self, reliable):
        # Both send flavours share one prelude: the metric and the
        # trace happening are emitted together.
        env, network, transport = build()
        add_pair(env, network, distance=1000.0)
        message = Message("a", "b", "x")
        send = transport.send_reliable if reliable else transport.send

        def run(env):
            yield send(message)

        env.process(run(env))
        with pytest.raises(Unreachable):
            env.run()
        assert transport.metrics.counter("net.unreachable").value == 1.0
        assert transport.trace.count("net.unreachable") == 1

    def test_invalid_attempts(self):
        env, network, transport = build()
        add_pair(env, network)
        with pytest.raises(ValueError):
            transport.send_reliable(Message("a", "b", "x"), max_attempts=0)


class TestBroadcast:
    def test_all_in_range_neighbors_hear(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # no loss
        a = network.add_node(
            NetworkNode(env, "a", Position(0, 0), technologies=[WIFI_ADHOC])
        )
        network.add_node(
            NetworkNode(env, "b", Position(50, 0), technologies=[WIFI_ADHOC])
        )
        network.add_node(
            NetworkNode(env, "c", Position(0, 50), technologies=[WIFI_ADHOC])
        )
        network.add_node(
            NetworkNode(env, "far", Position(500, 0), technologies=[WIFI_ADHOC])
        )

        def run(env):
            heard = yield transport.broadcast(a, "hello", size_bytes=100)
            return sorted(heard)

        process = env.process(run(env))
        assert env.run(until=process) == ["b", "c"]

    def test_broadcast_with_no_neighbors(self):
        env, network, transport = build()
        a = network.add_node(
            NetworkNode(env, "a", Position(0, 0), technologies=[WIFI_ADHOC])
        )

        def run(env):
            heard = yield transport.broadcast(a, "hello")
            return heard

        process = env.process(run(env))
        assert env.run(until=process) == []
        # The transmission itself still cost airtime bytes.
        assert a.costs.total_bytes_sent > 0

    @pytest.mark.parametrize(
        "size_bytes, error",
        [(-10, ValueError), (4 * WIFI_ADHOC.max_payload, MessageTooLarge)],
    )
    def test_broadcast_follows_the_unicast_size_rule(self, size_bytes, error):
        """A negative or oversized broadcast fails before its radio is
        booked: nothing is delivered or billed at either end."""
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # no loss
        a, b = add_pair(env, network)
        done = transport.broadcast(a, "hello", size_bytes=size_bytes)
        with pytest.raises(error):
            env.run(until=done)
        env.run()
        assert a.interface(WIFI_ADHOC.name).busy_until == 0.0
        assert a.costs.bytes_sent == {} and b.costs.bytes_received == {}
        assert len(b.inbox.items) == 0

    def _pair_with_gprs(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # no loss
        a = network.add_node(
            NetworkNode(
                env, "a", Position(0, 0), technologies=[WIFI_ADHOC, GPRS]
            )
        )
        network.add_node(
            NetworkNode(env, "b", Position(10, 0), technologies=[WIFI_ADHOC])
        )
        return env, transport, a

    def _broadcast(self, env, transport, source, technology):
        def run(env):
            heard = yield transport.broadcast(
                source, "hello", size_bytes=1000, technology=technology
            )
            return heard

        return env.run(until=env.process(run(env)))

    def test_explicit_technology_transmits_on_that_radio(self):
        env, transport, a = self._pair_with_gprs()
        assert self._broadcast(env, transport, a, WIFI_ADHOC) == ["b"]
        assert a.costs.bytes_sent == {WIFI_ADHOC.name: 1000 + 64}

    def test_explicit_technology_on_a_disabled_radio_bills_nothing(self):
        env, transport, a = self._pair_with_gprs()
        a.interface(WIFI_ADHOC.name).disable()
        assert self._broadcast(env, transport, a, WIFI_ADHOC) == []
        assert a.costs.total_bytes_sent == 0
        assert a.costs.money == 0.0

    def test_explicit_infrastructure_technology_bills_nothing(self):
        env, transport, a = self._pair_with_gprs()
        assert self._broadcast(env, transport, a, GPRS) == []
        assert a.costs.total_bytes_sent == 0
        assert a.costs.money == 0.0

    def test_radios_reaching_someone_transmit_in_name_order(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # no loss
        a = network.add_node(
            NetworkNode(
                env, "a", Position(0, 0), technologies=[WIFI_ADHOC, BLUETOOTH]
            )
        )
        network.add_node(
            NetworkNode(env, "wifi", Position(50, 0), technologies=[WIFI_ADHOC])
        )
        network.add_node(
            NetworkNode(env, "bt", Position(5, 0), technologies=[BLUETOOTH])
        )
        # "802.11b-adhoc" sorts before "bluetooth".
        assert self._broadcast(env, transport, a, None) == ["wifi", "bt"]
        assert set(a.costs.bytes_sent) == {WIFI_ADHOC.name, BLUETOOTH.name}


class TestLegWorkCount:
    """Exact work per leg: one link lookup to pick the link, a second
    to confirm it survived the transfer only when the topology epoch
    moved meanwhile, no link-rule call for a lone link, no span
    unless tracing is on, and a pinned number of kernel events."""

    def _count_one_leg(self, monkeypatch, tracing, move_mid_transfer=False):
        env = Environment()
        network = Network(env)
        tracer = SpanTracer(now=lambda: env.now, enabled=tracing)
        calls = {"links_between": 0, "start": 0, "policy": 0}
        rule = network_module.prefer_free_then_fast

        def counting_rule(link):
            calls["policy"] += 1
            return rule(link)

        transport = Transport(env, network, RandomStreams(7), tracer=tracer)
        transport._rng.random = lambda: 0.99  # never lose
        _, b = add_pair(env, network)
        links_between = Network.links_between
        start = SpanTracer.start

        def counting_links_between(self, a, b):
            calls["links_between"] += 1
            return links_between(self, a, b)

        def counting_start(self, *args, **kwargs):
            calls["start"] += 1
            return start(self, *args, **kwargs)

        monkeypatch.setattr(Network, "links_between", counting_links_between)
        # ``best_link`` looks the link rule up in its module.
        monkeypatch.setattr(
            network_module, "prefer_free_then_fast", counting_rule
        )
        monkeypatch.setattr(SpanTracer, "start", counting_start)
        message = Message("a", "b", "data", size_bytes=100)
        if move_mid_transfer:
            # b steps 10 m further while a's radio transmits, still in
            # range: the epoch moves, the link survives.
            halfway = WIFI_ADHOC.transfer_time(message.wire_size) / 2
            env.timeout(halfway).callbacks.append(
                lambda _event: b.move_to(Position(20, 0))
            )

        def run(env):
            attempts = yield transport.send_reliable(message)
            return attempts

        assert env.run(until=env.process(run(env))) == 1
        return calls, tracer

    def test_untraced_leg_looks_up_links_once_and_opens_no_span(
        self, monkeypatch
    ):
        calls, _ = self._count_one_leg(monkeypatch, tracing=False)
        assert calls == {"links_between": 1, "start": 0, "policy": 0}

    def test_leg_looks_up_links_again_when_a_node_moved_mid_transfer(
        self, monkeypatch
    ):
        calls, _ = self._count_one_leg(
            monkeypatch, tracing=False, move_mid_transfer=True
        )
        assert calls == {"links_between": 2, "start": 0, "policy": 0}

    def test_traced_leg_opens_one_transmit_span(self, monkeypatch):
        calls, tracer = self._count_one_leg(monkeypatch, tracing=True)
        assert calls == {"links_between": 1, "start": 1, "policy": 0}
        (span,) = tracer.finished_spans()
        assert span.name == "net.transmit"
        assert span.attributes["via"] == WIFI_ADHOC.name

    def _kernel_steps(self, reliable):
        """Kernel events for 100 back-to-back 200 B sends to a receiver
        blocked on its inbox, counting the sender and receiver
        processes' own events too."""
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # never lose
        a, b = add_pair(env, network)
        send = transport.send_reliable if reliable else transport.send

        def receiver(env):
            while True:
                yield b.inbox.get()

        def sender(env):
            for _ in range(100):
                yield send(Message("a", "b", "data", size_bytes=200))

        env.process(receiver(env))
        done = env.process(sender(env))
        steps = 0
        step = env.step

        def counting_step():
            nonlocal steps
            steps += 1
            step()

        env.step = counting_step
        env.run(until=done)
        return steps

    def test_plain_send_costs_three_events_per_message(self):
        # The arrival, the send's own event and the receiver's get; the
        # leg starts, books the radio, bills the sender and schedules
        # the arrival in the sender's event.  The process-based leg
        # (with its transmit timeout) costs 602.
        assert self._kernel_steps(reliable=False) == 302

    def test_reliable_send_costs_three_events_per_message(self):
        # The send's event is the final ack; the process-based leg
        # (a transmit timeout, a put event, an ack timeout and a
        # process-done) costs 703.
        assert self._kernel_steps(reliable=True) == 303


class TestLegFailures:
    """A leg is no process, but it keeps the process's failure
    contract: whatever a step raises fails that send's event."""

    class RaisingHook:
        def drops(self, message):
            raise RuntimeError("hook exploded")

    @pytest.mark.parametrize("reliable", [False, True])
    def test_hook_error_fails_the_send(self, reliable):
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # never lose: reach the hook
        add_pair(env, network)
        transport.faults = self.RaisingHook()
        message = Message("a", "b", "x", size_bytes=100)
        send = transport.send_reliable if reliable else transport.send

        def run(env):
            try:
                yield send(message)
            except RuntimeError as error:
                return str(error), env.now

        caught, when = env.run(until=env.process(run(env)))
        assert caught == "hook exploded"
        # The error surfaced at the delivery decision, not before.
        assert when == pytest.approx(
            (100 + HEADER_BYTES) * 8 / WIFI_ADHOC.bandwidth_bps
            + WIFI_ADHOC.latency_s
        )
        # Nothing was left held: a later send still goes through.
        transport.faults = None
        assert env.run(until=transport.send(Message("a", "b", "y"))) is True

    def test_failed_sends_leave_no_reference_cycles(self):
        """The errors a leg makes itself (a down sender, an unreachable
        peer, no link left for a retransmission) are built, not raised,
        so no traceback ties the error, the leg and the caller's frames
        into a cycle for the collector."""
        env, network, transport = build()
        transport._rng.random = lambda: 0.99  # lost only by moving away
        a, b = add_pair(env, network)
        network.add_node(
            NetworkNode(env, "far", Position(900, 0), technologies=[WIFI_ADHOC])
        )

        def run(env):
            failures = []
            for _ in range(20):
                for send in (transport.send, transport.send_reliable):
                    try:
                        yield send(Message("a", "far", "x"))
                    except Unreachable as error:
                        failures.append(type(error))
                a.crash()
                try:
                    yield transport.send(Message("a", "b", "x"))
                except NetworkError as error:
                    failures.append(type(error))
                a.restart()
                # b walks off mid-transfer: the retransmission finds no
                # link left.
                env.timeout(0.001).callbacks.append(
                    lambda _event: b.move_to(Position(1_000, 0))
                )
                try:
                    yield transport.send_reliable(
                        Message("a", "b", "x", size_bytes=10_000)
                    )
                except TransportTimeout as error:
                    failures.append(type(error))
                b.move_to(Position(10, 0))
            return failures

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            failures = env.run(until=env.process(run(env)))
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert failures == [
            Unreachable,
            Unreachable,
            NetworkError,
            TransportTimeout,
        ] * 20

    def test_unawaited_unreachable_send_raises_out_of_run(self):
        env, network, transport = build()
        add_pair(env, network, distance=1000.0)
        transport.send(Message("a", "b", "x"))
        with pytest.raises(Unreachable):
            env.run()

    def test_unawaited_timeout_raises_out_of_run(self):
        env, network, transport = build()
        transport._rng.random = lambda: 0.0  # always lose
        add_pair(env, network)
        transport.send_reliable(Message("a", "b", "x"), max_attempts=2)
        with pytest.raises(TransportTimeout):
            env.run()
