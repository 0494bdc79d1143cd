"""Unit tests for the transport: timing, loss, cost, reliability, broadcast."""

import pytest

from repro.errors import MessageTooLarge, TransportTimeout, Unreachable
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
        # Second message cannot finish at the same instant: channel was held.
        assert times[1] > times[0]
        assert times[1] - times[0] == pytest.approx(
            (500_000 + HEADER_BYTES) * 8 / WIFI_ADHOC.bandwidth_bps, rel=0.01
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
    """Exact work per leg: one link lookup to pick the link, one to
    confirm it survived the transfer, no span unless tracing is on, and
    a pinned number of kernel events."""

    def _count_one_leg(self, monkeypatch, tracing):
        env = Environment()
        network = Network(env)
        tracer = SpanTracer(now=lambda: env.now, enabled=tracing)
        transport = Transport(env, network, RandomStreams(7), tracer=tracer)
        transport._rng.random = lambda: 0.99  # never lose
        add_pair(env, network)
        calls = {"links_between": 0, "start": 0}
        links_between = Network.links_between
        start = SpanTracer.start

        def counting_links_between(self, a, b):
            calls["links_between"] += 1
            return links_between(self, a, b)

        def counting_start(self, *args, **kwargs):
            calls["start"] += 1
            return start(self, *args, **kwargs)

        monkeypatch.setattr(Network, "links_between", counting_links_between)
        monkeypatch.setattr(SpanTracer, "start", counting_start)
        message = Message("a", "b", "data", size_bytes=100)

        def run(env):
            attempts = yield transport.send_reliable(message)
            return attempts

        assert env.run(until=env.process(run(env))) == 1
        return calls, tracer

    def test_untraced_leg_looks_up_links_twice_and_opens_no_span(
        self, monkeypatch
    ):
        calls, _ = self._count_one_leg(monkeypatch, tracing=False)
        assert calls == {"links_between": 2, "start": 0}

    def test_traced_leg_opens_one_transmit_span(self, monkeypatch):
        calls, tracer = self._count_one_leg(monkeypatch, tracing=True)
        assert calls == {"links_between": 2, "start": 1}
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

    def test_plain_send_costs_five_events_per_message(self):
        # Channel claim, transmit, latency, the send's own event and the
        # receiver's get; the leg starts in the sender's event.  The
        # process-based leg costs 702.
        assert self._kernel_steps(reliable=False) == 502

    def test_reliable_send_costs_five_events_per_message(self):
        # The send's event is the final ack; the process-based leg
        # (a put event, an ack timeout and a process-done) costs 803.
        assert self._kernel_steps(reliable=True) == 503


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
