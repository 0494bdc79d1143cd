"""Messages moved by the network substrate.

A :class:`Message` is the unit of transfer between hosts.  Payloads are
ordinary Python objects (the middleware layers put typed envelopes in
them); ``size_bytes`` is the *modelled* wire size used for timing and
cost — payload objects carry their own size via the LMU serializer or an
explicit value.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Process-wide unique, monotonically increasing message id."""
    return next(_message_ids)


@contextmanager
def fresh_message_ids() -> Iterator[None]:
    """Deterministic message-id scope: ids restart at 1 inside.

    The process-wide counter makes a run's message ids — and therefore
    its captured spans, which record ``msg_id`` for correlation — a
    function of *everything that ran earlier in the process*: the same
    seed replayed as the second job in a worker produced different
    report bytes than a fresh process.  Scenario harnesses (chaos,
    hostile, :mod:`repro.runner` jobs) run inside this scope so every
    run allocates ids from 1 regardless of process history; the outer
    stream is restored on exit, so worlds outside the scope keep their
    uniqueness guarantee (correlation maps never see a reused id).
    """
    global _message_ids
    saved = _message_ids
    _message_ids = itertools.count(1)
    try:
        yield
    finally:
        _message_ids = saved


#: Fixed per-message envelope overhead (headers, framing), in bytes.
HEADER_BYTES = 64

#: Kind of the router's per-hop legs.  Relay plumbing, not traffic: a
#: leg of this kind never enters an inbox (see ``Router.send_multihop``).
RELAY_KIND = "net.relay"


@dataclass
class Message:
    """One network message."""

    source: str
    destination: str
    kind: str
    payload: object = None
    size_bytes: int = 0
    id: int = field(default_factory=next_message_id)
    created_at: float = 0.0
    #: id of the request this message answers, for RPC correlation.
    in_reply_to: Optional[int] = None
    #: technology name the message actually travelled over (set on delivery).
    via: Optional[str] = None
    hops: int = 0
    #: Causal span context (``{"trace": id, "span": id}``) propagated
    #: across hosts, like distributed-tracing headers.  Observability
    #: only: carries no modelled wire bytes.
    trace_context: Optional[Dict[str, int]] = None
    #: Set by the fault-injection layer: the payload was damaged in
    #: transit.  Receivers model a checksum pass — a corrupted message
    #: is discarded at dispatch, never handled.
    corrupted: bool = False
    #: Sim-time this copy reached the destination inbox.  Stamped by the
    #: transport (and the fault-injection delivery hook) only while span
    #: tracing is enabled — the hop timestamp the trace analyzer uses to
    #: separate link transit from injected delivery stalls.  0.0 means
    #: "not stamped" (tracing off, or never delivered).
    delivered_at: float = 0.0

    @property
    def wire_size(self) -> int:
        """Modelled bytes on the wire, including envelope overhead."""
        return self.size_bytes + HEADER_BYTES

    def reply(self, kind: str, payload: object = None, size_bytes: int = 0) -> "Message":
        """A response message addressed back to this message's source.

        The reply joins the request's trace, so both legs of an RPC
        land in one span tree.
        """
        return Message(
            source=self.destination,
            destination=self.source,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            in_reply_to=self.id,
            trace_context=(
                dict(self.trace_context) if self.trace_context else None
            ),
        )

    def __repr__(self) -> str:
        return (
            f"<Message #{self.id} {self.kind} {self.source}->{self.destination} "
            f"{self.wire_size}B>"
        )
