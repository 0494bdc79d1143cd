"""The process-based multi-hop relay, kept as an executable oracle.

:class:`ProcessRelayRouter` runs every ``send_multihop`` as a generator
:class:`~repro.sim.Process`, the way the router did before relays
became chains of kernel callbacks: it yields each leg's
``send_reliable`` and resumes in the event that acknowledges it, and
puts the relayed message with a ``put`` event.  Both routers send their
legs through the same :class:`~repro.net.Transport`, where relay legs
never enter an inbox.  ``test_relay_oracle.py`` drives both routers
through identical scripted worlds and asserts that every observable —
timestamps, hop counts, resume order, loss draws, metrics, costs, spans
and sampled series — comes out the same.

The relay under test takes its first step (the plan and the first
leg's start) in the caller's event.  The oracle's process does too: it
is an :class:`_EagerProcess`, which runs its generator's first step at
creation instead of in an urgent start event, so both relays number
their legs and start their spans in the same order.  The process keeps
the relay's lookup rule too: a later hop's link is checked only once
the topology epoch has moved since the plan, and a passed check leaves
the plan's epoch in place.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.errors import Unreachable
from repro.net import Router
from repro.net.message import RELAY_KIND, Message
from repro.sim import Event, Process


class _EagerProcess(Process):
    """A :class:`~repro.sim.Process` whose first step runs in the
    caller's event; an exception it raises fails the process, as any
    later step's does."""

    __slots__ = ()

    def __init__(self, env, generator: Generator, name: str) -> None:
        Event.__init__(self, env)
        self._generator = generator
        self.name = name
        start = Event(env)
        start._value = None
        self._resume(start)


class ProcessRelayRouter(Router):
    """A :class:`Router` whose multi-hop sends are generator processes."""

    def send_multihop(self, message: Message) -> Process:
        return _EagerProcess(
            self.env, self._relay(message), name=f"route#{message.id}"
        )

    def _relay(self, message: Message) -> Generator:
        current = message.source
        hops = 0
        if message.created_at == 0.0:
            message.created_at = self.env.now
        # The carried route, the index of ``current`` on it and the
        # epoch it was planned at.  A fresh plan was made over links
        # that exist now, so its first link is not checked again.
        route: Optional[List[str]] = None
        step = 0
        epoch = -1
        while current != message.destination:
            if hops >= self.max_hops:
                raise Unreachable(
                    f"gave up after {hops} hops towards {message.destination}"
                )
            if route is None or (
                epoch != self.network.topology_epoch
                and not self._link_up(current, route[step + 1])
            ):
                route = self.table.path(current, message.destination)
                if route is None or len(route) < 2:
                    raise Unreachable(
                        f"no path from {current} to {message.destination}"
                    )
                step = 0
                epoch = self.network.topology_epoch
            next_hop = route[step + 1]
            leg = Message(
                source=current,
                destination=next_hop,
                kind=RELAY_KIND,
                payload=message,
                size_bytes=message.size_bytes,
                created_at=message.created_at,
            )
            yield self.transport.send_reliable(leg)
            hops += 1
            step += 1
            current = next_hop
        destination_node = self.network.node(message.destination)
        # The last leg's ack can return after the destination crashed;
        # a downed node's inbox takes nothing.
        if not destination_node.up:
            raise Unreachable(f"destination {message.destination} is down")
        message.hops = hops
        message.via = "multihop"
        yield destination_node.inbox.put(message)
        return hops
