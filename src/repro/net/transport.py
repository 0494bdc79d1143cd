"""Message transport: timing, loss, cost, and delivery.

``send`` models one unacknowledged transfer: pick a link under the
policy, hold the sender's radio for the transmission time, then deliver
after the propagation latency unless the link broke mid-transfer or the
loss draw failed.  ``send_reliable`` adds ARQ-style retransmission with
a bounded number of attempts.  ``broadcast`` models a single ad-hoc
radio transmission heard by every in-range neighbour.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..errors import MessageTooLarge, NetworkError, TransportTimeout, Unreachable
from ..obs import NOOP_SPAN, SpanTracer
from ..sim import Environment, MetricsRegistry, Process, RandomStreams, TraceLog
from .message import Message
from .network import Link, LinkPolicy, Network, prefer_free_then_fast
from .node import NetworkNode
from .technologies import LinkTechnology

#: Modelled size of a link-layer acknowledgement, billed per reliable attempt.
ACK_BYTES = 32


def _check_size(message: Message, link: Link) -> None:
    if message.wire_size > link.sender_technology.max_payload:
        raise MessageTooLarge(
            f"{message.wire_size}B exceeds {link.sender_technology.name} limit"
        )


class Transport:
    """Moves :class:`Message` objects between nodes of one network."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        streams: RandomStreams,
        trace: Optional[TraceLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        policy: LinkPolicy = prefer_free_then_fast,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.trace = trace if trace is not None else TraceLog()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else SpanTracer(now=lambda: env.now, enabled=False)
        )
        self.policy = policy
        self._rng = streams.stream("transport.loss")
        #: Optional message-fault hook (see :mod:`repro.faults`): when
        #: attached it may force extra loss before the delivery
        #: decision and reshape deliveries (delay/duplicate/corrupt)
        #: after it.  ``None`` keeps the pre-fault behaviour and RNG
        #: draw order bit-identical.
        self.faults: Optional[object] = None
        #: (family, node id) -> labeled child; transports touch many
        #: nodes, so the per-site attribute caching hosts use is
        #: replaced by one shared lookup table.
        self._label_cache: dict = {}

    def _node_counter(self, name: str, node_id: str):
        key = (name, node_id)
        counter = self._label_cache.get(key)
        if counter is None:
            counter = self._label_cache[key] = self.metrics.counter(
                name, labels={"node": node_id}
            )
        return counter

    def _node_histogram(self, name: str, node_id: str):
        key = (name, node_id)
        histogram = self._label_cache.get(key)
        if histogram is None:
            histogram = self._label_cache[key] = self.metrics.histogram(
                name, labels={"node": node_id}
            )
        return histogram

    # -- public sends ---------------------------------------------------------

    def send(self, message: Message, policy: Optional[LinkPolicy] = None) -> Process:
        """Start an unacknowledged transfer; the process resolves to True
        (delivered) or False (lost in transit), and fails with
        :class:`Unreachable` when no link exists at send time."""
        return self.env.process(
            self._send(message, policy or self.policy),
            name=f"send#{message.id}",
        )

    def send_reliable(
        self,
        message: Message,
        max_attempts: int = 4,
        policy: Optional[LinkPolicy] = None,
    ) -> Process:
        """Transfer with retransmissions.

        Resolves to the number of attempts used; fails with
        :class:`TransportTimeout` when every attempt was lost, or
        :class:`Unreachable` when no link existed to begin with.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        return self.env.process(
            self._send_reliable(message, max_attempts, policy or self.policy),
            name=f"send-reliable#{message.id}",
        )

    def broadcast(
        self,
        source: NetworkNode,
        kind: str,
        payload: object = None,
        size_bytes: int = 0,
        technology: Optional[LinkTechnology] = None,
    ) -> Process:
        """One ad-hoc radio transmission heard by all in-range neighbours.

        Resolves to the list of node ids that actually received it.
        """
        return self.env.process(
            self._broadcast(source, kind, payload, size_bytes, technology),
            name=f"broadcast:{kind}",
        )

    # -- internals -------------------------------------------------------------

    def _first_link(self, message: Message, policy: LinkPolicy):
        """The prelude both sends share: ``(source, destination, link)``
        for the first attempt, or the error (an unreachable peer is
        counted and traced)."""
        source = self.network.node(message.source)
        destination = self.network.node(message.destination)
        if not source.up:
            raise NetworkError(f"sender {source.id} is down")
        if message.created_at == 0.0:
            message.created_at = self.env.now
        link = self.network.best_link(source, destination, policy)
        if link is None:
            self._node_counter("net.unreachable", source.id).increment()
            self.trace.emit(
                self.env.now, source.id, "net.unreachable", to=destination.id
            )
            raise Unreachable(f"{source.id} cannot reach {destination.id}")
        _check_size(message, link)
        return source, destination, link

    def _send(
        self, message: Message, policy: LinkPolicy
    ) -> Generator:
        source, destination, link = self._first_link(message, policy)
        delivered = yield from self._transmit(
            message, source, destination, link, attempt=1
        )
        return delivered

    def _transmit(
        self,
        message: Message,
        source: NetworkNode,
        destination: NetworkNode,
        link: Link,
        attempt: int = 1,
    ) -> Generator:
        """Run one transfer attempt over ``link``; returns delivery bool."""
        # Hop timestamps for the trace analyzer: the span runs
        # enqueue -> on-air -> sent -> delivery decision, and ``t_air``/
        # ``t_sent`` split it into channel-queue, airtime, and transit.
        # Guarded so the disabled-tracing path builds, stamps (and
        # allocates) nothing.
        tracer = self.tracer
        stamped = tracer.enabled
        if stamped:
            span = tracer.start(
                "net.transmit",
                source.id,
                parent=message.trace_context,
                msg=message.kind,
                msg_id=message.id,
                attempt=attempt,
                to=destination.id,
                bytes=message.wire_size,
                via=link.name,
            )
        else:
            span = NOOP_SPAN
        interface = source.interface(link.sender_technology.name)
        with interface.channel.request() as claim:
            yield claim
            if stamped:
                span.attributes["t_air"] = self.env.now
            transmit_time = link.transfer_time(message.wire_size)
            yield self.env.timeout(transmit_time)
        if stamped:
            span.attributes["t_sent"] = self.env.now
        # Bill the sender's access technology for the bytes put on air.
        source.costs.account_transfer(
            link.sender_technology, message.wire_size, sent=True
        )
        self._node_counter("net.bytes_sent", source.id).increment(
            message.wire_size
        )
        # Propagation; connectivity may have broken while transmitting.
        yield self.env.timeout(link.latency_s)
        still_connected = bool(self.network.links_between(source, destination))
        lost = self._rng.random() < link.loss
        reason = "loss" if lost else "disconnected"
        faults = self.faults
        if faults is not None and not lost and faults.drops(message):
            lost = True
            reason = "fault"
        if not destination.up or not still_connected or lost:
            self._node_counter("net.messages_lost", destination.id).increment()
            self.trace.emit(
                self.env.now,
                source.id,
                "net.lost",
                to=destination.id,
                msg=message.kind,
                reason=reason,
            )
            if stamped:
                tracer.finish(span, status="lost", reason=reason)
            return False
        destination.costs.account_transfer(
            link.receiver_technology, message.wire_size, sent=False
        )
        message.via = link.name
        message.hops += 1
        self._node_counter(
            "net.messages_delivered", destination.id
        ).increment()
        self._node_histogram(
            "net.delivery_latency", destination.id
        ).observe(self.env.now - message.created_at)
        self.trace.emit(
            self.env.now,
            source.id,
            "net.delivered",
            to=destination.id,
            msg=message.kind,
            via=link.name,
            bytes=message.wire_size,
        )
        if stamped:
            tracer.finish(span)
        if faults is None:
            if stamped:
                message.delivered_at = self.env.now
            yield destination.inbox.put(message)
        else:
            # The hook may delay the copy, add duplicates, or mark the
            # payload corrupted; it owns the inbox put(s) — and the
            # ``delivered_at`` stamps, so injected delays surface as
            # transit stalls in the trace analysis.
            yield from faults.deliver(message, destination)
        return True

    def _send_reliable(
        self, message: Message, max_attempts: int, policy: LinkPolicy
    ) -> Generator:
        source, destination, link = self._first_link(message, policy)
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                link = self.network.best_link(source, destination, policy)
                if link is None:
                    raise TransportTimeout(
                        f"lost connectivity to {destination.id} after "
                        f"{attempt - 1} attempts"
                    )
                _check_size(message, link)
            delivered = yield from self._transmit(
                message, source, destination, link, attempt=attempt
            )
            # The acknowledgement costs airtime and bytes at both ends.
            yield self.env.timeout(link.latency_s)
            if destination.up:
                destination.costs.account_transfer(
                    link.receiver_technology, ACK_BYTES, sent=True
                )
            source.costs.account_transfer(link.sender_technology, ACK_BYTES, sent=False)
            if delivered:
                self._node_histogram(
                    "net.attempts_used", destination.id
                ).observe(float(attempt))
                return attempt
            if attempt < max_attempts:
                self._node_counter(
                    "net.retransmissions", destination.id
                ).increment()
        raise TransportTimeout(
            f"message #{message.id} to {destination.id} lost "
            f"{max_attempts} times"
        )

    def _broadcast(
        self,
        source: NetworkNode,
        kind: str,
        payload: object,
        size_bytes: int,
        technology: Optional[LinkTechnology],
    ) -> Generator:
        if not source.up:
            raise NetworkError(f"sender {source.id} is down")
        span = self.tracer.start(
            "net.broadcast", source.id, msg=kind, bytes=size_bytes
        )
        # Only a usable ad-hoc radio can transmit.
        adhoc = [
            iface.technology
            for iface in source.usable_interfaces()
            if iface.technology.is_adhoc
        ]
        if technology is not None:
            techs = [tech for tech in adhoc if tech.name == technology.name]
        else:
            # Every radio that reaches someone, in name order; with
            # nobody in range the transmission still happens, on the
            # first usable ad-hoc radio.
            techs = sorted(
                (
                    tech
                    for tech in adhoc
                    if self.network.neighbors(source, technology=tech)
                ),
                key=lambda tech: tech.name,
            ) or adhoc[:1]
        received: List[str] = []
        wire = size_bytes + 64
        for tech in techs:
            interface = source.interface(tech.name)
            with interface.channel.request() as claim:
                yield claim
                yield self.env.timeout(tech.transfer_time(wire))
            source.costs.account_transfer(tech, wire, sent=True)
            yield self.env.timeout(tech.latency_s)
            for neighbor in self.network.neighbors(source, technology=tech):
                if self._rng.random() < tech.loss:
                    continue
                message = Message(
                    source=source.id,
                    destination=neighbor.id,
                    kind=kind,
                    payload=payload,
                    size_bytes=size_bytes,
                    created_at=self.env.now,
                )
                message.via = tech.name
                neighbor.costs.account_transfer(tech, wire, sent=False)
                if self.tracer.enabled:
                    message.delivered_at = self.env.now
                yield neighbor.inbox.put(message)
                received.append(neighbor.id)
        self._node_counter("net.broadcasts", source.id).increment()
        self._node_histogram("net.broadcast_reach", source.id).observe(
            float(len(received))
        )
        self.trace.emit(
            self.env.now,
            source.id,
            "net.broadcast",
            msg=kind,
            heard_by=len(received),
        )
        self.tracer.finish(span, heard_by=len(received))
        return received
