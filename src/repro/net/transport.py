"""Message transport: timing, loss, cost, and delivery.

``send`` models one unacknowledged transfer: pick a link under the
policy, hold the sender's radio for the transmission time, then deliver
after the propagation latency unless the link broke mid-transfer or the
loss draw failed.  ``send_reliable`` adds ARQ-style retransmission with
a bounded number of attempts.  ``broadcast`` models a single ad-hoc
radio transmission heard by every in-range neighbour.

A send is no process: it runs as a :class:`_Leg`, whose first step
runs in the caller's event and whose later steps are callbacks on the
events the transfer has to schedule anyway — the radio channel claim,
the transmit and latency timeouts and, for a reliable send, the
acknowledgement.  The returned :class:`Event` fires with the outcome at
the instant the old sending process finished, so callers yield it
exactly as before.

A delivered message lands in the receiver's inbox, except a router
relay leg (kind :data:`~repro.net.message.RELAY_KIND`): the router
learns of its arrival from the acknowledgement and nobody reads it.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..errors import MessageTooLarge, NetworkError, TransportTimeout, Unreachable
from ..obs import NOOP_SPAN, SpanTracer
from ..sim import (
    Environment,
    Event,
    MetricsRegistry,
    Process,
    RandomStreams,
    Timeout,
    TraceLog,
)
from ..sim.events import PENDING
from .message import RELAY_KIND, Message
from .network import Link, LinkPolicy, Network, prefer_free_then_fast
from .node import NetworkNode
from .technologies import LinkTechnology

#: Modelled size of a link-layer acknowledgement, billed per reliable attempt.
ACK_BYTES = 32

#: ``send_reliable``'s default attempt budget.
RELIABLE_ATTEMPTS = 4


def _check_size(message: Message, link: Link) -> None:
    if message.wire_size > link.sender_technology.max_payload:
        raise MessageTooLarge(
            f"{message.wire_size}B exceeds {link.sender_technology.name} limit"
        )


class _Leg:
    """One send, run as kernel callbacks instead of a generator process.

    The steps:

    1. ``_start``, in the caller's event, picks the first link and
       queues for the sender's radio;
    2. ``_granted`` (the channel claim) starts the transmit timeout;
    3. ``_sent`` frees the radio, bills the sender and starts the
       propagation timeout;
    4. ``_arrived`` decides delivery or loss and settles ``done`` —
       or, for a lost attempt with attempts left, starts the ack
       timeout whose callback ``_retry`` retransmits.

    ``done`` is the event the caller holds.  A plain send settles it
    when the delivery is decided; a reliable send's ``done`` *is* the
    final acknowledgement, scheduled one latency after the decision
    with ``_ack`` (the ack billing) as its first callback.  Any
    exception a step raises fails ``done`` (the first step's too: a
    send never raises at its call site), as it failed the process.
    """

    __slots__ = (
        "transport",
        "done",
        "policy",
        "attempts",
        "message",
        "source",
        "destination",
        "link",
        "attempt",
        "span",
        "claim",
    )

    def __init__(
        self,
        transport: "Transport",
        message: Message,
        policy: LinkPolicy,
        attempts: int,
    ) -> None:
        self.transport = transport
        self.message = message
        self.policy = policy
        #: Attempt budget of a reliable send; 0 for an unacknowledged one.
        self.attempts = attempts
        self.attempt = 1
        self.span = NOOP_SPAN
        self.claim = None
        self.done = Event(transport.env)
        self._start()

    def _fail(self, error: Exception) -> None:
        """Fail ``done`` with ``error`` now (urgent, as a process failed),
        first returning a radio claim the failed step still held."""
        claim = self.claim
        if claim is not None:
            self.claim = None
            claim.resource.release(claim)
        done = self.done
        if done._value is not PENDING:
            # The outcome is already scheduled; surface the error.
            raise error
        done._ok = False
        done._value = error
        self.transport.env.schedule(done, priority=True)

    def _start(self) -> None:
        try:
            self.source, self.destination, self.link = (
                self.transport._first_link(self.message, self.policy)
            )
            self._transmit()
        except Exception as error:
            self._fail(error)

    def _transmit(self) -> None:
        """Open this attempt's span and queue for the sender's radio."""
        # Hop timestamps for the trace analyzer: the span runs
        # enqueue -> on-air -> sent -> delivery decision, and ``t_air``/
        # ``t_sent`` split it into channel-queue, airtime, and transit.
        # Guarded so the disabled-tracing path builds, stamps (and
        # allocates) nothing.
        tracer = self.transport.tracer
        link = self.link
        span = NOOP_SPAN
        if tracer.enabled:
            message = self.message
            span = tracer.start(
                "net.transmit",
                self.source.id,
                parent=message.trace_context,
                msg=message.kind,
                msg_id=message.id,
                attempt=self.attempt,
                to=self.destination.id,
                bytes=message.wire_size,
                via=link.name,
            )
        self.span = span
        interface = self.source.interface(link.sender_technology.name)
        claim = self.claim = interface.channel.request()
        claim.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        try:
            env = self.transport.env
            span = self.span
            if span is not NOOP_SPAN:
                span.attributes["t_air"] = env.now
            transmit_time = self.link.transfer_time(self.message.wire_size)
            Timeout(env, transmit_time).callbacks.append(self._sent)
        except Exception as error:
            self._fail(error)

    def _sent(self, _event: Event) -> None:
        try:
            claim = self.claim
            self.claim = None
            claim.resource.release(claim)
            transport = self.transport
            env = transport.env
            span = self.span
            if span is not NOOP_SPAN:
                span.attributes["t_sent"] = env.now
            # Bill the sender's access technology for the bytes put on air.
            source = self.source
            link = self.link
            size = self.message.wire_size
            source.costs.account_transfer(link.sender_technology, size, sent=True)
            transport._node_counter("net.bytes_sent", source.id).increment(size)
            Timeout(env, link.latency_s).callbacks.append(self._arrived)
        except Exception as error:
            self._fail(error)

    def _arrived(self, _event: Event) -> None:
        try:
            transport = self.transport
            env = transport.env
            message = self.message
            source = self.source
            destination = self.destination
            link = self.link
            span = self.span
            # Connectivity may have broken while transmitting.
            still_connected = bool(
                transport.network.links_between(source, destination)
            )
            lost = transport._rng.random() < link.loss
            reason = "loss" if lost else "disconnected"
            faults = transport.faults
            if faults is not None and not lost and faults.drops(message):
                lost = True
                reason = "fault"
            if not destination.up or not still_connected or lost:
                transport._node_counter(
                    "net.messages_lost", destination.id
                ).increment()
                transport.trace.emit(
                    env.now,
                    source.id,
                    "net.lost",
                    to=destination.id,
                    msg=message.kind,
                    reason=reason,
                )
                if span is not NOOP_SPAN:
                    transport.tracer.finish(span, status="lost", reason=reason)
                if not self.attempts:
                    self._settle(False, urgent=True)
                elif self.attempt < self.attempts:
                    Timeout(env, link.latency_s).callbacks.append(self._retry)
                else:
                    self._acknowledge(
                        TransportTimeout(
                            f"message #{message.id} to {destination.id} lost "
                            f"{self.attempts} times"
                        )
                    )
                return
            destination.costs.account_transfer(
                link.receiver_technology, message.wire_size, sent=False
            )
            message.via = link.name
            message.hops += 1
            transport._node_counter(
                "net.messages_delivered", destination.id
            ).increment()
            transport._node_histogram(
                "net.delivery_latency", destination.id
            ).observe(env.now - message.created_at)
            transport.trace.emit(
                env.now,
                source.id,
                "net.delivered",
                to=destination.id,
                msg=message.kind,
                via=link.name,
                bytes=message.wire_size,
            )
            if span is not NOOP_SPAN:
                transport.tracer.finish(span)
            # The fault hook may mark the payload corrupted, add
            # duplicates, or hold the message back for a delay (the
            # delayed copy then puts and stamps itself, so the stall
            # surfaces as transit time in the trace analysis).
            put_now = faults is None or faults.deliver(message, destination)
            if self.attempts:
                self._acknowledge(self.attempt)
            else:
                # Put now: the sender resumes before the receiver's get,
                # as it did when the process finished on the put event.
                self._settle(True, urgent=not put_now)
            if put_now and message.kind != RELAY_KIND:
                if span is not NOOP_SPAN:
                    message.delivered_at = env.now
                destination.inbox.put_nowait(message)
        except Exception as error:
            self._fail(error)

    def _settle(self, value: object, urgent: bool) -> None:
        """Fire a plain send's ``done`` with ``value`` now."""
        done = self.done
        done._value = value
        self.transport.env.schedule(done, priority=urgent)

    def _acknowledge(self, outcome: object) -> None:
        """Schedule a reliable send's ``done`` as the acknowledgement of
        the last attempt: it fires one latency from now with ``outcome``
        (the attempts used, or the timeout error), and bills the ack
        before any waiter resumes."""
        done = self.done
        if isinstance(outcome, Exception):
            done._ok = False
        done._value = outcome
        done.callbacks.insert(0, self._ack)
        self.transport.env.schedule(done, self.link.latency_s)

    def _bill_ack(self) -> None:
        """The acknowledgement costs airtime and bytes at both ends."""
        link = self.link
        destination = self.destination
        if destination.up:
            destination.costs.account_transfer(
                link.receiver_technology, ACK_BYTES, sent=True
            )
        self.source.costs.account_transfer(
            link.sender_technology, ACK_BYTES, sent=False
        )

    def _ack(self, done: Event) -> None:
        self._bill_ack()
        if done._ok:
            self.transport._node_histogram(
                "net.attempts_used", self.destination.id
            ).observe(float(self.attempt))

    def _retry(self, _event: Event) -> None:
        try:
            self._bill_ack()
            transport = self.transport
            destination = self.destination
            transport._node_counter(
                "net.retransmissions", destination.id
            ).increment()
            self.attempt += 1
            link = transport.network.best_link(
                self.source, destination, self.policy
            )
            if link is None:
                raise TransportTimeout(
                    f"lost connectivity to {destination.id} after "
                    f"{self.attempt - 1} attempts"
                )
            _check_size(self.message, link)
            self.link = link
            self._transmit()
        except Exception as error:
            self._fail(error)


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

    def send(self, message: Message, policy: Optional[LinkPolicy] = None) -> Event:
        """Start an unacknowledged transfer; the event fires with True
        (delivered) or False (lost in transit), and fails with
        :class:`Unreachable` when no link exists at send time."""
        return _Leg(self, message, policy or self.policy, 0).done

    def send_reliable(
        self,
        message: Message,
        max_attempts: int = RELIABLE_ATTEMPTS,
        policy: Optional[LinkPolicy] = None,
    ) -> Event:
        """Transfer with retransmissions.

        The event fires with the number of attempts used once the last
        attempt is acknowledged; it fails with
        :class:`TransportTimeout` when every attempt was lost, or
        :class:`Unreachable` when no link existed to begin with.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        return _Leg(self, message, policy or self.policy, max_attempts).done

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
