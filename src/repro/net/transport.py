"""Message transport: timing, loss, cost, and delivery.

``send`` models one unacknowledged transfer: pick a link
(:meth:`~repro.net.network.Network.best_link`), book the sender's
radio for the transmission time (behind the transfers already booked
on it, unicast and broadcast alike), then deliver after the
propagation latency unless the link broke mid-transfer or the loss
draw failed.  ``send_reliable`` adds
ARQ-style retransmission with a bounded number of attempts.
``broadcast`` models a single ad-hoc radio transmission heard by every
in-range neighbour.

A send is no process: it runs as a :class:`_Leg`, whose first step
runs in the caller's event and whose later steps are callbacks on the
events the transfer has to schedule anyway — the arrival and, for a
reliable send, the acknowledgement.  The step that books the radio
also bills the sender and schedules the arrival at the transfer's end
plus the link latency, so an attempt costs one kernel event before its
delivery decision.  The returned :class:`Event` fires with the outcome
at the instant the old sending process finished, so callers yield it
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
from .message import HEADER_BYTES, RELAY_KIND, Message
from .network import Network
from .node import NetworkNode
from .technologies import LinkTechnology

#: Modelled size of a link-layer acknowledgement, billed per reliable attempt.
ACK_BYTES = 32

#: ``send_reliable``'s default attempt budget.
RELIABLE_ATTEMPTS = 4


def _check_size(size_bytes: int, technology: LinkTechnology) -> None:
    # Checked before the radio is booked: a negative size would book
    # it backwards in time.
    if size_bytes < 0:
        raise ValueError(f"negative message size {size_bytes}")
    size = size_bytes + HEADER_BYTES
    if size > technology.max_payload:
        raise MessageTooLarge(f"{size}B exceeds {technology.name} limit")


class _Leg:
    """One send, run as kernel callbacks instead of a generator process.

    The steps:

    1. ``_start``, in the caller's event, picks the first link and
       ``_transmit`` books the sender's radio
       (:meth:`~repro.net.node.Interface.reserve`), bills the sender
       and schedules the arrival at the end of the booked transfer
       plus the link latency;
    2. ``_arrived`` decides delivery or loss and settles ``done`` —
       or, for a lost attempt with attempts left, starts the ack
       timeout whose callback ``_retry`` retransmits.

    Nothing unbooks a booked transfer, so the sender is billed in the
    event that books its radio, the instant the host charges its
    battery: the transfer's end needs no event of its own.

    ``done`` is the event the caller holds.  A plain send settles it
    when the delivery is decided; a reliable send's ``done`` *is* the
    final acknowledgement, scheduled one latency after the decision
    with ``_ack`` (the ack billing) as its first callback.  Any
    exception a step raises fails ``done`` (the first step's too: a
    send never raises at its call site), as it failed the process.
    The errors a leg makes itself (a down sender, no link to start
    with, none left for a retransmission) fail it unraised, so no
    traceback ties them into a reference cycle.

    Each attempt records the topology epoch its link was picked at
    (``epoch``).  An unchanged epoch means every connectivity answer
    is unchanged, so ``_arrived`` looks the link up again only when
    the epoch has moved during the transfer: in a still world a leg
    costs one link lookup per attempt.
    """

    __slots__ = (
        "transport",
        "done",
        "attempts",
        "message",
        "source",
        "destination",
        "link",
        "attempt",
        "span",
        "epoch",
        "size",
    )

    def __init__(
        self,
        transport: "Transport",
        message: Message,
        attempts: int,
    ) -> None:
        self.transport = transport
        self.message = message
        #: Attempt budget of a reliable send; 0 for an unacknowledged one.
        self.attempts = attempts
        self.attempt = 1
        self.span = NOOP_SPAN
        self.done = Event(transport.env)
        self._start()

    def _fail(self, error: Exception) -> None:
        """Fail ``done`` with ``error`` now (urgent, as a process failed)."""
        done = self.done
        if done._value is not PENDING:
            # The outcome is already scheduled; surface the error.
            raise error
        done._ok = False
        done._value = error
        self.transport.env.schedule(done, priority=True)

    def _start(self) -> None:
        try:
            self.source, self.destination, link = self.transport._first_link(
                self.message
            )
            if isinstance(link, Exception):
                self._fail(link)
                return
            self.link = link
            self._transmit()
        except Exception as error:
            self._fail(error)

    def _transmit(self) -> None:
        """Open this attempt's span, book the sender's radio, bill the
        sender and schedule the arrival."""
        # Hop timestamps for the trace analyzer: the span runs
        # enqueue -> on-air -> sent -> delivery decision, and ``t_air``/
        # ``t_sent`` split it into radio-queue, airtime, and transit.
        # Guarded so the disabled-tracing path builds, stamps (and
        # allocates) nothing.
        transport = self.transport
        env = transport.env
        link = self.link
        message = self.message
        source = self.source
        size = self.size = message.wire_size
        technology = link.sender_technology
        start, end = source.interface(technology.name).reserve(
            link.transfer_time(size)
        )
        tracer = transport.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.start(
                "net.transmit",
                source.id,
                parent=message.trace_context,
                msg=message.kind,
                msg_id=message.id,
                attempt=self.attempt,
                to=self.destination.id,
                bytes=size,
                via=link.name,
                t_air=start,
            )
        # The transfer ends at ``now + (end - now)``, the instant a
        # timeout of ``end - now`` fires, which can differ from ``end``
        # in the last bit; the arrival is one link latency later.
        now = env.now
        t_sent = now + (end - now)
        if span is not NOOP_SPAN:
            span.attributes["t_sent"] = t_sent
        self.span = span
        # The link was picked in this event, at this epoch.
        self.epoch = transport.network.topology_epoch
        # Bill the sender's access technology for the bytes it put on air.
        source.costs.account_transfer(technology, size, sent=True)
        transport._node_counter("net.bytes_sent", source.id).increment(size)
        arrival = Event(env)
        arrival._value = None
        arrival.callbacks.append(self._arrived)
        env.schedule_at(arrival, t_sent + link.latency_s)

    def _arrived(self, _event: Event) -> None:
        try:
            transport = self.transport
            env = transport.env
            message = self.message
            source = self.source
            destination = self.destination
            link = self.link
            span = self.span
            # Connectivity may have broken while transmitting; an
            # unchanged epoch means every link answer still holds.
            network = transport.network
            still_connected = self.epoch == network.topology_epoch or bool(
                network.links_between(source, destination)
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
            size = self.size
            destination.costs.account_transfer(
                link.receiver_technology, size, sent=False
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
                bytes=size,
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
            link = transport.network.best_link(self.source, destination)
            if link is None:
                self._fail(
                    TransportTimeout(
                        f"lost connectivity to {destination.id} after "
                        f"{self.attempt - 1} attempts"
                    )
                )
                return
            _check_size(self.message.size_bytes, link.sender_technology)
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

    def send(self, message: Message) -> Event:
        """Start an unacknowledged transfer; the event fires with True
        (delivered) or False (lost in transit), and fails with
        :class:`Unreachable` when no link exists at send time."""
        return _Leg(self, message, 0).done

    def send_reliable(
        self,
        message: Message,
        max_attempts: int = RELIABLE_ATTEMPTS,
    ) -> Event:
        """Transfer with retransmissions.

        The event fires with the number of attempts used once the last
        attempt is acknowledged; it fails with
        :class:`TransportTimeout` when every attempt was lost, or
        :class:`Unreachable` when no link existed to begin with.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        return _Leg(self, message, max_attempts).done

    def broadcast(
        self,
        source: NetworkNode,
        kind: str,
        payload: object = None,
        size_bytes: int = 0,
        technology: Optional[LinkTechnology] = None,
    ) -> Process:
        """One ad-hoc radio transmission heard by all in-range neighbours.

        Resolves to the list of node ids that actually received it, or
        fails before booking by the unicast size rule (``_check_size``).
        """
        return self.env.process(
            self._broadcast(source, kind, payload, size_bytes, technology),
            name=f"broadcast:{kind}",
        )

    # -- internals -------------------------------------------------------------

    def _first_link(self, message: Message):
        """The prelude both sends share: ``(source, destination, link)``
        for the first attempt.  A down sender or an unreachable peer
        (counted and traced) gives the error in the link's place, built
        but not raised: a raised error's traceback would pin the
        sender's frames, and through them the error itself, in a
        reference cycle."""
        source = self.network.node(message.source)
        destination = self.network.node(message.destination)
        if not source.up:
            return source, destination, NetworkError(
                f"sender {source.id} is down"
            )
        if message.created_at == 0.0:
            message.created_at = self.env.now
        link = self.network.best_link(source, destination)
        if link is None:
            self._node_counter("net.unreachable", source.id).increment()
            self.trace.emit(
                self.env.now, source.id, "net.unreachable", to=destination.id
            )
            return source, destination, Unreachable(
                f"{source.id} cannot reach {destination.id}"
            )
        _check_size(message.size_bytes, link.sender_technology)
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
        # The unicast size rule, on every radio before any is booked.
        for tech in techs:
            _check_size(size_bytes, tech)
        span = self.tracer.start(
            "net.broadcast", source.id, msg=kind, bytes=size_bytes
        )
        received: List[str] = []
        wire = size_bytes + HEADER_BYTES
        for tech in techs:
            # The broadcast books the same radio as unicast legs do.
            _, end = source.interface(tech.name).reserve(
                tech.transfer_time(wire)
            )
            yield self.env.timeout(end - self.env.now)
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
