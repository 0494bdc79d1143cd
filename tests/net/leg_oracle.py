"""The process-based transport leg, kept as an executable oracle.

:class:`ProcessLegTransport` runs every ``send``/``send_reliable`` as a
generator :class:`~repro.sim.Process`, the way the transport did before
legs became chains of kernel callbacks.  Beside it, ``reference.py``
keeps the naive topology sweeps.  ``test_leg_oracle.py`` drives both
transports through identical scripted worlds and asserts that every
observable — timestamps, loss draws, metrics, costs, spans and sampled
series — comes out the same.

Only the sends are overridden; the prelude (``_first_link``), the
labeled-metric lookups and ``broadcast`` are shared with the transport
under test, and the process books the sender's radio through the same
:meth:`~repro.net.node.Interface.reserve` as the leg does.  It bills
the sender right after that booking, before its transmit timeout, as
the leg bills in the event that books the radio; it keeps its own
transmit and latency timeouts, so the leg's one scheduled arrival is
checked against them.  The process
keeps the leg's lookup rule too: it records the topology epoch at each
link pick and looks the link up again after the transfer only when the
epoch has moved, so the topology-cache counters in the sampled series
match.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import TransportTimeout
from repro.net.message import Message
from repro.net.network import Link
from repro.net.node import NetworkNode
from repro.net.transport import ACK_BYTES, Transport, _check_size
from repro.obs import NOOP_SPAN
from repro.sim import Process


class ProcessLegTransport(Transport):
    """A :class:`Transport` whose legs are generator processes."""

    def send(self, message: Message) -> Process:
        return self.env.process(
            self._send(message),
            name=f"send#{message.id}",
        )

    def send_reliable(
        self,
        message: Message,
        max_attempts: int = 4,
    ) -> Process:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        return self.env.process(
            self._send_reliable(message, max_attempts),
            name=f"send-reliable#{message.id}",
        )

    def _send(self, message: Message) -> Generator:
        source, destination, link = self._first_link(message)
        if isinstance(link, Exception):
            raise link
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
        # The link was picked in this event, at this epoch.
        epoch = self.network.topology_epoch
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
        start, end = interface.reserve(link.transfer_time(message.wire_size))
        if stamped:
            span.attributes["t_air"] = start
        # The sender is billed when its radio is booked, as the leg does.
        source.costs.account_transfer(
            link.sender_technology, message.wire_size, sent=True
        )
        self._node_counter("net.bytes_sent", source.id).increment(
            message.wire_size
        )
        yield self.env.timeout(end - self.env.now)
        if stamped:
            span.attributes["t_sent"] = self.env.now
        yield self.env.timeout(link.latency_s)
        still_connected = epoch == self.network.topology_epoch or bool(
            self.network.links_between(source, destination)
        )
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
        # The hook's spawned copies come first; then the sender yields
        # on its own put, as the process-based leg always did.
        if faults is None or faults.deliver(message, destination):
            if stamped:
                message.delivered_at = self.env.now
            yield destination.inbox.put(message)
        return True

    def _send_reliable(
        self, message: Message, max_attempts: int
    ) -> Generator:
        source, destination, link = self._first_link(message)
        if isinstance(link, Exception):
            raise link
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                link = self.network.best_link(source, destination)
                if link is None:
                    raise TransportTimeout(
                        f"lost connectivity to {destination.id} after "
                        f"{attempt - 1} attempts"
                    )
                _check_size(message.size_bytes, link.sender_technology)
            delivered = yield from self._transmit(
                message, source, destination, link, attempt=attempt
            )
            yield self.env.timeout(link.latency_s)
            if destination.up:
                destination.costs.account_transfer(
                    link.receiver_technology, ACK_BYTES, sent=True
                )
            source.costs.account_transfer(
                link.sender_technology, ACK_BYTES, sent=False
            )
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
