"""Decentralised service discovery for ad-hoc environments.

The paper's criticism of Jini is that it needs a lookup server, which
ad-hoc networks lack.  This component needs none: providers answer
broadcast queries directly (and may gratuitously beacon their
advertisements); clients collect unicast replies for a bounded window
and keep a freshness-bounded cache.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Tuple

from ..net import Message
from .components import Component, MessageHandler
from .services import ServiceDescription

KIND_QUERY = "disc.request"
KIND_REPLY = "disc.reply"
KIND_BEACON = "disc.advert"

_query_ids = itertools.count(1)


class Discovery(Component):
    """Broadcast-query/unicast-reply discovery with advert caching."""

    kind = "discovery"
    code_size = 5_000

    def __init__(
        self,
        beacon_interval: Optional[float] = None,
        cache_ttl: float = 30.0,
    ) -> None:
        super().__init__()
        if beacon_interval is not None and beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if cache_ttl <= 0:
            raise ValueError("cache_ttl must be positive")
        self.beacon_interval = beacon_interval
        self.cache_ttl = cache_ttl
        #: Services this host offers: key -> description.
        self.local: Dict[str, ServiceDescription] = {}
        #: Adverts heard from peers: key -> (description, heard_at).
        self.cache: Dict[str, Tuple[ServiceDescription, float]] = {}
        self._open_queries: Dict[int, List[ServiceDescription]] = {}

    def start(self) -> None:
        super().start()
        if self.beacon_interval is not None:
            self.env.process(
                self._beacon_loop(),
                name=f"disc-beacon:{self.require_host().id}",
            )

    def handlers(self) -> Dict[str, MessageHandler]:
        return {
            KIND_QUERY: self._handle_query,
            KIND_REPLY: self._handle_reply,
            KIND_BEACON: self._handle_beacon,
        }

    # -- provider side -------------------------------------------------------------

    def advertise(self, description: ServiceDescription) -> None:
        """Offer a service for peers to discover."""
        self.local[description.key] = description

    def withdraw(self, key: str) -> None:
        self.local.pop(key, None)

    # -- client side ------------------------------------------------------------------

    def find(
        self,
        service_type: str,
        attributes: Optional[Dict[str, str]] = None,
        window: float = 2.0,
        use_cache: bool = True,
        repeats: int = 2,
    ) -> Generator:
        """Discover providers of ``service_type`` (generator helper).

        The query broadcast is repeated ``repeats`` times across the
        collection ``window`` (broadcasts are unacknowledged, so
        repetition is the loss defence — as in SLP).  Returns the
        (possibly empty) list of matching descriptions after the
        window; a fresh cache hit returns immediately without radio
        traffic.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        host = self.require_host()
        tracer = host.world.tracer
        if use_cache:
            cached = self._cache_lookup(service_type, attributes)
            if cached:
                host.world.metrics.counter("disc.cache_hits").increment()
                # Own offers match on either path, like the radio path.
                for description in self.local.values():
                    if description.matches(service_type, attributes):
                        cached.append(description)
                return list({d.key: d for d in cached}.values())
        span = tracer.start(
            "disc.find", host.id, service_type=service_type, repeats=repeats
        )
        started = self.env.now
        query_id = next(_query_ids)
        self._open_queries[query_id] = []
        host.world.metrics.counter("disc.queries").increment()
        gap = window / (repeats + 1)
        for _repeat in range(repeats):
            yield host.world.transport.broadcast(
                host.node,
                KIND_QUERY,
                payload={
                    "query_id": query_id,
                    "service_type": service_type,
                    "attributes": dict(attributes or {}),
                    "requester": host.id,
                },
                size_bytes=64,
            )
            yield self.env.timeout(gap)
        yield self.env.timeout(gap)
        found = self._open_queries.pop(query_id, [])
        # Local services match too (a host can use its own offer).
        for description in self.local.values():
            if description.matches(service_type, attributes):
                found.append(description)
        unique = list({d.key: d for d in found}.values())
        if unique:
            host.world.metrics.counter("disc.found").increment()
        host.world.metrics.histogram("disc.find_seconds").observe(
            self.env.now - started
        )
        host.world.metrics.gauge("disc.cache_size").set(len(self.cache))
        tracer.finish(span, found=len(unique))
        return unique

    def _cache_lookup(
        self, service_type: str, attributes: Optional[Dict[str, str]]
    ) -> List[ServiceDescription]:
        now = self.env.now
        fresh = []
        for key, (description, heard_at) in list(self.cache.items()):
            if now - heard_at > self.cache_ttl:
                del self.cache[key]
                continue
            if description.matches(service_type, attributes):
                fresh.append(description)
        return fresh

    # -- message handling -------------------------------------------------------------

    def _handle_query(self, message: Message) -> Generator:
        host = self.require_host()
        payload = message.payload or {}
        matches = [
            description
            for description in self.local.values()
            if description.matches(
                payload.get("service_type", ""), payload.get("attributes")
            )
        ]
        if not matches:
            return
        reply = Message(
            source=host.id,
            destination=payload.get("requester", message.source),
            kind=KIND_REPLY,
            payload={"query_id": payload.get("query_id"), "services": matches},
            size_bytes=sum(m.size_bytes for m in matches),
        )
        yield host.send(reply, reliable=False)

    def _handle_reply(self, message: Message) -> Generator:
        payload = message.payload or {}
        bucket = self._open_queries.get(payload.get("query_id"))
        descriptions = payload.get("services", [])
        for description in descriptions:
            self.cache[description.key] = (description, self.env.now)
            if bucket is not None:
                bucket.append(description)
        return
        yield  # pragma: no cover - generator protocol

    def _handle_beacon(self, message: Message) -> Generator:
        for description in (message.payload or {}).get("services", []):
            self.cache[description.key] = (description, self.env.now)
        return
        yield  # pragma: no cover - generator protocol

    # -- beaconing ---------------------------------------------------------------------

    def _beacon_loop(self) -> Generator:
        host = self.require_host()
        while self.started:
            if self.local and host.node.up:
                services = list(self.local.values())
                yield host.world.transport.broadcast(
                    host.node,
                    KIND_BEACON,
                    payload={"services": services},
                    size_bytes=sum(s.size_bytes for s in services),
                )
            yield self.env.timeout(self.beacon_interval)
