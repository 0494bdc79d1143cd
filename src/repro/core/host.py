"""The mobile host: the middleware runtime on one device.

A :class:`MobileHost` ties a network node to a codebase, a security
identity, a sandbox, a context registry, and a set of pluggable
components.  It dispatches each inbound message to a component handler
(a kernel callback on the inbox get, not a process), correlates
request/reply exchanges, gates inbound capsules through policy and
signature checks, and meters CPU and battery for everything executed
locally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generator, Optional, Tuple

from ..errors import (
    ComponentError,
    MiddlewareError,
    NetworkError,
    RequestTimeout,
    SecurityError,
)
from ..lmu import Capsule, Codebase, CodeRepository
from ..net import Message, NetworkNode
from ..security import (
    ExecuteResult,
    InProcessProvider,
    KeyPair,
    QuotaGrant,
    SandboxProvider,
    SecurityPolicy,
    SessionInfo,
    SIGNED_POLICY,
    StrictProvider,
    TrustStore,
    WORK_UNITS_PER_SECOND,
    capsule_verification_delay,
    verify_capsule,
)
from ..sim import Event
from ..sim.events import PENDING
from .components import Component, MessageHandler
from .context import Battery, ContextRegistry
from .world import World

#: A CS service handler: (request payload, server host) -> (result, size).
ServiceHandler = Callable[[object, "MobileHost"], Tuple[object, int]]


class MobileHost:
    """The middleware runtime on one network node."""

    def __init__(
        self,
        world: World,
        node: NetworkNode,
        policy: SecurityPolicy = SIGNED_POLICY,
        quota_bytes: float = float("inf"),
        battery: Optional[Battery] = None,
        keypair: Optional[KeyPair] = None,
        repository: Optional[CodeRepository] = None,
    ) -> None:
        self.world = world
        self.env = world.env
        self.node = node
        self.policy = policy
        self.battery = battery
        self.codebase = Codebase(
            quota_bytes=quota_bytes, now=lambda: self.env.now
        )
        self.truststore = TrustStore()
        #: Pluggable guest-execution substrate: provider name ->
        #: :class:`~repro.security.SandboxProvider`.  Which provider a
        #: guest runs under is decided by the principal's
        #: :class:`~repro.security.QuotaGrant` (see ``run_guest``).
        self.providers: Dict[str, SandboxProvider] = {
            "inprocess": InProcessProvider(node.id, metrics=world.metrics),
            "strict": StrictProvider(node.id, metrics=world.metrics),
        }
        #: Last observed metered work per task name, fed into the
        #: paradigm cost model so the selector prices CPU it has seen,
        #: not just the task's declared estimate.
        self._observed_work: Dict[str, float] = {}
        self.keypair = keypair or KeyPair.generate(
            node.id, world.streams.stream(f"keys.{node.id}")
        )
        #: Publishable catalogue, for hosts that serve COD (may be None).
        self.repository = repository
        self.components: Dict[str, Component] = {}
        self._handlers: Dict[str, MessageHandler] = {}
        self._pending: Dict[int, Event] = {}
        #: Correlation ids of requests this host issued and has since
        #: closed (resolved, timed out, or abandoned on a send error),
        #: mapped to the request's message kind.  A late or duplicate
        #: reply to a closed request is *stale*: it must be discarded
        #: here, not fall through to the kind handlers where it could
        #: double-resolve work (the chaos duplicate-delivery injector
        #: is the reproducer).  Bounded FIFO so a long run cannot grow
        #: it without limit.
        self._closed_requests: "OrderedDict[int, str]" = OrderedDict()
        self._closed_requests_limit = 1024
        #: CS services offered locally: name -> (handler, work units).
        self.services: Dict[str, Tuple[ServiceHandler, float]] = {}
        self.context = ContextRegistry(now=lambda: self.env.now)
        self.unhandled_messages = 0
        self.rejected_capsules = 0
        # Per-node labeled children of the host metric families, cached
        # once: each update lands on the ``{node=...}`` series *and*
        # forwards to the flat family total, so fleet-wide figures stay
        # identical while health monitors see individual hosts.
        metrics = world.metrics
        labels = {"node": node.id}
        self._m_request_rtt = metrics.histogram("host.request_rtt", labels=labels)
        self._m_request_timeouts = metrics.counter(
            "host.request_timeouts", labels=labels
        )
        self._m_stale_replies = metrics.counter(
            "host.stale_replies", labels=labels
        )
        self._m_corrupt_discarded = metrics.counter(
            "host.corrupt_discarded", labels=labels
        )
        self._m_unhandled = metrics.counter("host.unhandled", labels=labels)
        self._m_handler_errors = metrics.counter(
            "host.handler_errors", labels=labels
        )
        self._m_verifications = metrics.counter(
            "security.verifications", labels=labels
        )
        self._m_verify_seconds = metrics.histogram(
            "security.verify_seconds", labels=labels
        )
        self._m_rejections = metrics.counter(
            "security.rejections", labels=labels
        )
        self._arm_inbound()
        world.hosts[node.id] = self

    @property
    def id(self) -> str:
        return self.node.id

    def __repr__(self) -> str:
        return f"<MobileHost {self.id} components={sorted(self.components)}>"

    # -- component management ---------------------------------------------------

    def add_component(self, component: Component, start: bool = True) -> Component:
        """Attach (and by default start) a component, wiring its handlers."""
        if component.kind in self.components:
            raise ComponentError(
                f"host {self.id} already has a {component.kind!r} component"
            )
        component.attach(self)
        self.components[component.kind] = component
        for kind, handler in component.handlers().items():
            if kind in self._handlers:
                raise ComponentError(
                    f"message kind {kind!r} already handled on {self.id}"
                )
            self._handlers[kind] = handler
        if start:
            component.start()
        return component

    def remove_component(self, kind: str) -> Component:
        """Stop and detach a component, unwiring its handlers."""
        try:
            component = self.components.pop(kind)
        except KeyError:
            raise ComponentError(
                f"host {self.id} has no {kind!r} component"
            ) from None
        if component.started:
            component.stop()
        for message_kind in component.handlers():
            self._handlers.pop(message_kind, None)
        component.host = None
        return component

    def component(self, kind: str) -> Component:
        try:
            return self.components[kind]
        except KeyError:
            raise ComponentError(
                f"host {self.id} has no {kind!r} component"
            ) from None

    def paradigm_component(
        self, paradigm: str, required: bool = True
    ) -> Optional[Component]:
        """The installed component executing paradigm ``paradigm``.

        Looked up by the component's declared :attr:`~Component.paradigm`
        (not its registry kind), so a plugged-in fifth paradigm is found
        the same way the built-in four are.  Only components satisfying
        the :class:`~repro.core.invocation.Paradigm` protocol (an
        ``invoke`` entry point) qualify.
        """
        for component in self.components.values():
            if (
                getattr(component, "paradigm", None) == paradigm
                and hasattr(component, "invoke")
            ):
                return component
        if required:
            raise ComponentError(
                f"host {self.id} has no component for paradigm "
                f"{paradigm!r}"
            )
        return None

    # -- CS service registry -----------------------------------------------------

    def register_service(
        self, name: str, handler: ServiceHandler, work_units: float = 1000.0
    ) -> None:
        """Offer a CS service: ``handler(args, host) -> (result, size)``.

        ``work_units`` is the modelled CPU cost of serving one request.
        """
        if name in self.services:
            raise MiddlewareError(f"service {name!r} already registered on {self.id}")
        self.services[name] = (handler, work_units)

    def unregister_service(self, name: str) -> None:
        self.services.pop(name, None)

    # -- messaging ----------------------------------------------------------------

    def send(self, message: Message, reliable: bool = True) -> Event:
        """Send a message, charging the battery for the radio bytes."""
        if self.battery is not None:
            self.battery.consume_radio(message.wire_size)
        if reliable:
            return self.world.transport.send_reliable(message)
        return self.world.transport.send(message)

    def request(
        self,
        message: Message,
        timeout: float = 30.0,
        parent: object = None,
        attempt: int = 1,
    ) -> Generator:
        """Send ``message`` and wait for its reply (generator helper).

        Returns the reply :class:`Message`.  Raises a
        :class:`~repro.errors.NetworkError` (``Unreachable``,
        ``TransportTimeout``, or a down sender) when the request cannot
        be delivered, and :class:`~repro.errors.RequestTimeout` when no
        reply arrives within ``timeout``.

        The caller waits on the reply event alone.  The deadline is a
        timeout whose one callback, ``expire``, settles a still-pending
        reply event with ``None``; the correlation id stays pending
        until the caller resumes and closes it.  A reply that wins
        cancels the deadline.

        ``parent`` (a span or span context) makes the exchange a child
        of the caller's span; the request's span context travels inside
        the message so the remote side joins the same trace.
        ``attempt`` is the 1-based retry index the invocation pipeline
        passes so each exchange span says which attempt it was.
        """
        tracer = self.world.tracer
        span = tracer.start(
            "host.request",
            self.id,
            parent=parent if parent is not None else message.trace_context,
            msg=message.kind,
            msg_id=message.id,
            attempt=attempt,
            to=message.destination,
        )
        if message.trace_context is None:
            message.trace_context = tracer.context(span)
        started = self.env.now
        reply_event = self.env.event()
        self._pending[message.id] = reply_event
        try:
            yield self.send(message)
        except NetworkError as error:
            self._close_request(message)
            tracer.finish(span, status="error", error=type(error).__name__)
            raise
        timer = self.env.timeout(timeout)

        def expire(_timer: Event) -> None:
            if reply_event._value is PENDING:
                reply_event.succeed(None)

        timer.callbacks.append(expire)
        reply = yield reply_event
        self._close_request(message)
        if reply is not None:
            # Cancel the deadline: the kernel drops it unrun, and the
            # closure no longer pins the reply.
            timer.callbacks = None
            self._m_request_rtt.observe(self.env.now - started)
            tracer.finish(span)
            return reply
        self._m_request_timeouts.increment()
        tracer.finish(span, status="error", error="RequestTimeout")
        raise RequestTimeout(
            f"{self.id}: no reply to {message.kind} #{message.id} from "
            f"{message.destination} within {timeout}s"
        )

    def _close_request(self, message: Message) -> None:
        """Retire a request's correlation id (every ``request`` exit).

        The id moves from the pending map to the bounded closed set so
        the dispatcher can tell a *stale* reply (late duplicate to a
        request already resolved or abandoned) from a reply correlating
        with someone else's exchange.
        """
        self._pending.pop(message.id, None)
        closed = self._closed_requests
        closed[message.id] = message.kind
        if len(closed) > self._closed_requests_limit:
            closed.popitem(last=False)

    def _discard_stale_reply(self, message: Message) -> None:
        """Count and trace a reply to an already-closed request."""
        request_kind = self._closed_requests[message.in_reply_to]
        metrics = self.world.metrics
        self._m_stale_replies.increment()
        # Attribute the drop to the paradigm whose exchange it was,
        # when the request kind's prefix names an installed paradigm
        # component ("cs.request" -> paradigm "cs", ...).
        prefix = request_kind.split(".", 1)[0]
        component = self.components.get(prefix)
        paradigm = getattr(component, "paradigm", None)
        if paradigm:
            metrics.counter(
                f"paradigm.{paradigm}.stale_replies",
                labels={"node": self.id},
            ).increment()
        self.world.trace.emit(
            self.env.now,
            self.id,
            "host.stale_reply",
            msg=message.kind,
            in_reply_to=message.in_reply_to,
        )
        tracer = self.world.tracer
        if tracer.enabled:
            # Even a discarded copy reached this inbox: record the
            # delivery marker so the trace analyzer can count duplicate
            # deliveries (repeated ``t_deliver`` stamps for one message
            # id) without double-counting any causal edge.
            marker = tracer.start(
                "host.deliver",
                self.id,
                parent=message.trace_context,
                msg=message.kind,
                msg_id=message.id,
                in_reply_to=message.in_reply_to,
                t_deliver=message.delivered_at,
                stale=True,
            )
            tracer.finish(marker)

    def reply_to(
        self, request: Message, kind: str, payload: object = None, size_bytes: int = 0
    ) -> Event:
        """Send a correlated reply to ``request``."""
        return self.send(request.reply(kind, payload=payload, size_bytes=size_bytes))

    # -- execution ------------------------------------------------------------------

    def execute(self, work_units: float) -> Generator:
        """Simulate local computation of ``work_units`` (generator helper).

        Yields the CPU time scaled by this node's speed and charges the
        battery; returns the elapsed seconds.
        """
        if not work_units >= 0:  # also rejects NaN
            raise ValueError(f"work must be >= 0, got {work_units!r}")
        seconds = work_units / (WORK_UNITS_PER_SECOND * self.node.cpu_speed)
        yield self.env.timeout(seconds)
        if self.battery is not None:
            self.battery.consume_cpu(seconds)
        return seconds

    def provider_for(self, grant: QuotaGrant) -> SandboxProvider:
        """The installed provider a grant names (default: in-process)."""
        return self.providers.get(grant.provider, self.providers["inprocess"])

    def guest_session(
        self,
        principal: str,
        services: Optional[Dict[str, object]] = None,
        provider: Optional[str] = None,
    ) -> Tuple[SandboxProvider, SessionInfo]:
        """Open a guest-execution session for ``principal``.

        The policy's :meth:`~repro.security.SecurityPolicy.grant_for`
        picks the quotas and (unless ``provider`` overrides it) the
        provider flavor.  The caller owns the session: run guests with
        ``provider.execute(session, guest, *args)`` and finish with
        :meth:`close_guest_session`.
        """
        grant = self.policy.grant_for(principal)
        chosen = (
            self.providers[provider]
            if provider is not None
            else self.provider_for(grant)
        )
        session = chosen.open_session(
            principal,
            grant,
            services=services,
            now=self.env.now,
            cpu_speed=self.node.cpu_speed,
        )
        return chosen, session

    def close_guest_session(
        self, provider: SandboxProvider, session: SessionInfo
    ) -> "object":
        """Close a guest session, emitting its final metrics."""
        return provider.close_session(session, now=self.env.now)

    def run_guest(
        self,
        guest: object,
        principal: str,
        *args: object,
        services: Optional[Dict[str, object]] = None,
        provider: Optional[str] = None,
        task_name: Optional[str] = None,
    ) -> ExecuteResult:
        """Run one guest callable through this host's provider substrate.

        Opens a single-use session under ``principal``'s grant,
        executes, and closes.  The caller still pays the simulated CPU
        time: ``yield from host.execute(result.work_used)``.  When
        ``task_name`` is given and the guest metered any work, the
        observation feeds the paradigm cost model
        (:meth:`observed_guest_work`).
        """
        chosen, session = self.guest_session(
            principal, services=services, provider=provider
        )
        try:
            result = chosen.execute(session, guest, *args)
        finally:
            self.close_guest_session(chosen, session)
        if task_name is not None and result.work_used > 0:
            self._observed_work[task_name] = result.work_used
        return result

    def observed_guest_work(self, task_name: Optional[str]) -> Optional[float]:
        """Last metered work units a named task's guest consumed here."""
        if task_name is None:
            return None
        return self._observed_work.get(task_name)

    # -- capsule security gate ----------------------------------------------------

    def admit_capsule(
        self, capsule: Capsule, operation: str
    ) -> Generator:
        """Police an inbound capsule (generator helper).

        Checks the operation against the policy and, when signatures
        are required, verifies the capsule (simulating the CPU cost).
        Returns the verified principal (or the manifest sender under an
        open policy).  Raises ``PolicyViolation`` / ``SignatureInvalid``
        / ``UntrustedPrincipal``.
        """
        principal = capsule.manifest.sender
        if self.policy.require_signatures:
            principal = verify_capsule(self.truststore, capsule)
            delay = capsule_verification_delay(capsule)
            self._m_verifications.increment()
            self._m_verify_seconds.observe(delay)
            yield from self.execute(
                delay * WORK_UNITS_PER_SECOND
            )
        self.policy.check(operation, principal)
        return principal

    # -- dispatch -------------------------------------------------------------------

    def _arm_inbound(self) -> None:
        """Wait for the next inbound message: one inbox get, whose
        callback is :meth:`_on_inbound`."""
        self.node.inbox.get().callbacks.append(self._on_inbound)

    def _on_inbound(self, get: Event) -> None:
        """Arm the next inbox get, then dispatch one inbound message.

        Arming first matters when a second message already waits in the
        inbox: its get is then queued ahead of this message's reply
        event, so the second message is dispatched before the reply
        event resumes its caller, the order the race-based oracle in
        ``tests/core/request_oracle.py`` keeps (the
        ``same_instant_replies`` scenario of ``test_request_oracle.py``).
        """
        self._arm_inbound()
        message: Message = get._value  # type: ignore[assignment]
        if not self.node.up:
            return
        if message.corrupted:
            # Checksum model: damaged payloads are detected and
            # dropped at the receiver, whatever their kind.
            self._m_corrupt_discarded.increment()
            self.world.trace.emit(
                self.env.now, self.id, "host.corrupt_discarded",
                msg=message.kind,
            )
            return
        if message.in_reply_to is not None:
            event = self._pending.pop(message.in_reply_to, None)
            if event is not None:
                tracer = self.world.tracer
                if tracer.enabled:
                    # Zero-duration delivery marker: replies resolve
                    # futures instead of running handlers, so this
                    # is the receiver-side hop stamp the trace
                    # analyzer correlates with the reply's
                    # ``net.transmit`` span (injected delivery
                    # delays surface as the gap between the two).
                    marker = tracer.start(
                        "host.deliver",
                        self.id,
                        parent=message.trace_context,
                        msg=message.kind,
                        msg_id=message.id,
                        in_reply_to=message.in_reply_to,
                        t_deliver=message.delivered_at,
                    )
                    tracer.finish(marker)
                # Already triggered only when the deadline expired at
                # this same instant and the caller has yet to resume:
                # it resumes timed out, and this reply counts as
                # neither stale nor unhandled.
                if event._value is PENDING:
                    event.succeed(message)
                return
            if message.in_reply_to in self._closed_requests:
                self._discard_stale_reply(message)
                return
            # Replies correlating with exchanges this host never
            # issued through ``request`` (e.g. discovery's
            # broadcast round) fall through to the kind handlers.
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.unhandled_messages += 1
            self._m_unhandled.increment()
            self.world.trace.emit(
                self.env.now, self.id, "host.unhandled", msg=message.kind
            )
            return
        span = self.world.tracer.start(
            "host.handle",
            self.id,
            parent=message.trace_context,
            msg=message.kind,
            msg_id=message.id,
            t_deliver=message.delivered_at,
            origin=message.source,
        )
        self.env.process(
            self._guarded(handler, message, span),
            name=f"{self.id}:{message.kind}#{message.id}",
        )

    def _guarded(
        self, handler: MessageHandler, message: Message, span: object = None
    ) -> Generator:
        """Run a handler, containing its failures (they are traced)."""
        tracer = self.world.tracer
        try:
            yield from handler(message)
        except SecurityError as error:
            self.rejected_capsules += 1
            self._m_rejections.increment()
            self.world.trace.emit(
                self.env.now,
                self.id,
                "host.capsule_rejected",
                msg=message.kind,
                error=str(error),
            )
            if span is not None:
                tracer.finish(span, status="error", error=str(error))
        except MiddlewareError as error:
            self._m_handler_errors.increment()
            self.world.trace.emit(
                self.env.now,
                self.id,
                "host.handler_error",
                msg=message.kind,
                error=str(error),
            )
            if span is not None:
                tracer.finish(span, status="error", error=str(error))
        except NetworkError as error:
            # Unreachable peers, exhausted retransmits, and this host
            # crashing mid-handler (its transport refuses to send).
            self.world.trace.emit(
                self.env.now,
                self.id,
                "host.handler_netfail",
                msg=message.kind,
                error=str(error),
            )
            if span is not None:
                tracer.finish(span, status="error", error=str(error))
        else:
            if span is not None:
                tracer.finish(span)
