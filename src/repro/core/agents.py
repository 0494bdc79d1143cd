"""Mobile Agents: autonomous units that decide when and where to migrate.

An :class:`Agent` is a code unit plus serialisable state plus a current
location.  Migration is *weak* (as in every deployed Java agent
platform): the agent's ``on_arrival`` generator runs afresh at each
host with only ``agent.state`` carried across — shipped as a signed
capsule holding the agent's code unit and a state data unit.

The :class:`AgentRuntime` component is the paper's "protected
environment to host mobile agents": arrivals pass the policy and
signature gate, and execution is metered against the guest budgets.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from ..errors import (
    MigrationError,
    RequestTimeout,
    SandboxViolation,
    SecurityError,
    ServiceNotFound,
    TransportTimeout,
    Unreachable,
    from_wire,
    to_wire,
)
from ..lmu import DataUnit, assemble_capsule, code_unit, estimate_size
from ..net import Message
from ..security import (
    OP_ACCEPT_AGENT,
    WORK_UNITS_PER_SECOND,
    sign_capsule,
)
from ..sim import Event
from ..sim.events import PENDING
from .adaptation import PARADIGM_MA
from .components import Component, MessageHandler
from .invocation import (
    DEFAULT_RETRY,
    InvocationTask,
    RetryPolicy,
    request_with_retry,
    retry_with_backoff,
)

KIND_TRANSFER = "agent.transfer"
KIND_ACK = "agent.ack"


class _MigrationComplete(Exception):
    """Control flow: the agent left this host; stop local execution."""

    def __init__(self, target: str) -> None:
        super().__init__(target)
        self.target = target


class _AgentDied(Exception):
    """Control flow: the agent chose to terminate."""


class Agent:
    """Base class for mobile agents.

    Subclasses implement :meth:`on_arrival` as a generator over the
    :class:`AgentContext` and MUST be constructible with no arguments
    (reconstruction at the destination calls ``cls()`` and then
    restores ``state``).  All persistent agent data lives in
    ``self.state`` — plain, serialisable values only.
    """

    #: Modelled code footprint shipped per migration hop.
    code_size: int = 10_000

    def __init__(self) -> None:
        self.state: Dict[str, object] = {}

    @classmethod
    def unit_name(cls) -> str:
        return f"agent:{cls.__name__}"

    @classmethod
    def to_unit(cls):
        """This agent class as a transferable code unit."""
        return code_unit(
            name=cls.unit_name(),
            version="1.0.0",
            factory=lambda: cls,
            size_bytes=cls.code_size,
            description=cls.__doc__ or "",
        )

    # -- agent identity ---------------------------------------------------------

    @property
    def agent_id(self) -> str:
        return str(self.state.get("agent_id", "unlaunched"))

    @property
    def hops(self) -> int:
        return int(self.state.get("hops", 0))  # type: ignore[arg-type]

    def on_arrival(self, context: "AgentContext") -> Generator:
        """The agent's behaviour at (each) host.  Must be a generator."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator function


class AgentContext:
    """What an agent sees of the host it currently occupies.

    ``trip`` is the span (or wire span context) this stay belongs to:
    the ``ma.invoke`` span when :meth:`AgentRuntime.invoke` launched
    the agent, or the trace context of the transfer that brought it
    here.  The stay's ``agent.migrate`` and ``invoke.backoff`` spans
    parent under it, so one agent trip stays one trace tree.  It is
    never shipped in the agent's state.
    """

    def __init__(
        self, runtime: "AgentRuntime", agent: Agent, trip: object
    ) -> None:
        self._runtime = runtime
        self._agent = agent
        self._trip = trip
        host = runtime.require_host()
        # The agent's whole stay at this host is one provider session:
        # every ``execute``/``invoke_local`` charge lands on the
        # session's metered context, and closing it (lifecycle end or
        # departure) emits the stay's resource metrics.
        self._provider, self._session = host.guest_session(
            principal=agent.agent_id
        )
        self._exec = self._session.context

    def close(self) -> None:
        """End this stay's provider session (idempotent)."""
        if self._session.open:
            self._runtime.require_host().close_guest_session(
                self._provider, self._session
            )

    # -- observation ---------------------------------------------------------

    @property
    def host_id(self) -> str:
        return self._runtime.require_host().id

    @property
    def now(self) -> float:
        return self._runtime.env.now

    @property
    def state(self) -> Dict[str, object]:
        return self._agent.state

    def neighbors(self) -> List[str]:
        """Ids of hosts currently reachable over ad-hoc radio."""
        host = self._runtime.require_host()
        return sorted(
            node.id for node in host.world.network.neighbors(host.node)
        )

    def can_reach(self, target_id: str) -> bool:
        host = self._runtime.require_host()
        if target_id not in host.world.network:
            return False
        return host.world.network.connected(host.id, target_id)

    def random(self):
        """The agent's own deterministic RNG stream."""
        host = self._runtime.require_host()
        return host.world.streams.stream(f"agent.{self._agent.agent_id}")

    # -- action ------------------------------------------------------------------

    def execute(self, work_units: float) -> Generator:
        """Compute for ``work_units``, metered against the guest budget."""
        self._exec.charge(work_units)
        yield from self._runtime.require_host().execute(work_units)

    def sleep(self, seconds: float) -> Generator:
        yield self._runtime.env.timeout(seconds)

    def invoke_local(self, service: str, args: object = None) -> Generator:
        """Call a service offered by the *current* host, paying its CPU
        cost locally (how a visiting agent uses a vendor's catalogue)."""
        host = self._runtime.require_host()
        entry = host.services.get(service)
        if entry is None:
            raise ServiceNotFound(
                f"host {host.id} offers no service {service!r}"
            )
        handler, work_units = entry
        self._exec.charge(work_units)
        yield from host.execute(work_units)
        result, _size = handler(args, host)
        return result

    def note_served(self) -> None:
        """Count one unit of useful work done by this agent against the
        runtime's uniform ``paradigm.ma.served`` counter."""
        self._runtime.pipeline.record_served()

    def migrate_with_retry(
        self, target_id: str, policy: RetryPolicy
    ) -> Generator:
        """:meth:`migrate` to ``target_id``, retrying failed transfers.

        Runs through the pipeline's backoff helper
        (:func:`~repro.core.invocation.retry_with_backoff`): each
        :class:`MigrationError` but the last is followed by one
        ``paradigm.ma.retries`` count and one ``invoke.backoff`` span
        lasting the policy's delay.  On success control does not
        return; when every attempt fails the last error is raised.
        """
        runtime = self._runtime
        yield from retry_with_backoff(
            runtime.require_host(),
            lambda _number: self.migrate(target_id),
            policy,
            (MigrationError,),
            parent=self._trip,
            on_retry=lambda: runtime.pipeline.bump("retries"),
        )

    def deliver(self, payload: object) -> None:
        """Hand a payload to the current host's application layer."""
        self._runtime.receive_delivery(self._agent, payload)

    def log(self, event: str, **fields: object) -> None:
        host = self._runtime.require_host()
        host.world.trace.emit(
            self.now, f"agent:{self._agent.agent_id}", event, **fields
        )

    def migrate(self, target_id: str) -> Generator:
        """Move this agent to ``target_id``.

        On success the local execution stops (weak mobility): control
        does NOT return.  On failure :class:`MigrationError` is raised
        and the agent keeps running here (it may pick another target).
        """
        yield from self._runtime._migrate(
            self._agent, target_id, parent=self._trip
        )
        raise _MigrationComplete(target_id)

    def clone_to(self, target_id: str) -> Generator:
        """Launch a *copy* of this agent on ``target_id``.

        Unlike :meth:`migrate`, the local agent keeps running.  The
        clone gets a fresh agent id (suffix ``.cN``) and starts its own
        ``on_arrival`` at the target.  Returns the clone's id; raises
        :class:`MigrationError` when the transfer fails.
        """
        clone_id = yield from self._runtime._clone(self._agent, target_id)
        return clone_id

    def die(self) -> None:
        """Terminate this agent here and now."""
        raise _AgentDied(self._agent.agent_id)


#: Called with (agent, payload) when an agent delivers to this host.
DeliveryListener = Callable[[Agent, object], None]


class AgentRuntime(Component):
    """Hosts, launches, migrates, and protects mobile agents."""

    kind = "agents"
    paradigm = PARADIGM_MA
    code_size = 12_000

    def __init__(self, migration_timeout: float = 60.0) -> None:
        super().__init__()
        self.migration_timeout = migration_timeout
        #: Agents currently executing on this host.
        self.hosted: Dict[str, Agent] = {}
        #: Final state of agents that completed (returned/finished) here.
        self.completed: Dict[str, Dict[str, object]] = {}
        #: Payloads delivered by agents to this host's application layer.
        self.deliveries: List[object] = []
        self._delivery_listeners: List[DeliveryListener] = []
        self._completion_events: Dict[str, object] = {}
        #: Per-runtime launch counter: agent ids (and therefore their
        #: RNG stream names) stay deterministic within one World, no
        #: matter what other simulations ran in the same process.
        self._launch_counter = 0
        self.failures = 0
        self.violations = 0

    def handlers(self) -> Dict[str, MessageHandler]:
        return {KIND_TRANSFER: self._handle_transfer}

    # -- application API -----------------------------------------------------------

    def launch(self, agent: Agent, **initial_state: object):
        """Start ``agent`` on this host; returns its assigned id."""
        return self._launch(agent, initial_state)

    def _launch(
        self, agent: Agent, initial_state: Dict[str, object], trip: object = None
    ) -> str:
        host = self.require_host()
        agent.state.update(initial_state)
        self._launch_counter += 1
        agent.state.setdefault(
            "agent_id", f"{host.id}-agent-{self._launch_counter}"
        )
        agent.state.setdefault("home", host.id)
        agent.state.setdefault("hops", 0)
        self._run(agent, trip)
        return agent.agent_id

    def on_delivery(self, listener: DeliveryListener) -> None:
        self._delivery_listeners.append(listener)

    def receive_delivery(self, agent: Agent, payload: object) -> None:
        self.deliveries.append(payload)
        host = self.require_host()
        host.world.metrics.counter("agents.deliveries").increment()
        for listener in list(self._delivery_listeners):
            listener(agent, payload)

    def completion(self, agent_id: str):
        """An event firing with the agent's final state when it completes
        on this host (used to await a returning agent)."""
        if agent_id in self.completed:
            event = self.env.event()
            event.succeed(self.completed[agent_id])
            return event
        event = self._completion_events.get(agent_id)
        if event is None:
            event = self.env.event()
            self._completion_events[agent_id] = event
        return event

    # -- lifecycle ----------------------------------------------------------------------

    def _run(self, agent: Agent, trip: object) -> None:
        self.hosted[agent.agent_id] = agent
        self.env.process(
            self._lifecycle(agent, trip),
            name=f"agent:{agent.agent_id}@{self.require_host().id}",
        )

    def _lifecycle(self, agent: Agent, trip: object) -> Generator:
        host = self.require_host()
        context = AgentContext(self, agent, trip)
        try:
            yield from self._guarded_arrival(agent, context)
        except _MigrationComplete as move:
            self.hosted.pop(agent.agent_id, None)
            host.world.trace.emit(
                self.env.now, host.id, "agent.departed",
                agent=agent.agent_id, to=move.target,
            )
            return
        except _AgentDied:
            self._finish(agent, outcome="died")
            return
        except SandboxViolation as violation:
            self.violations += 1
            host.world.metrics.counter(
                "security.sandbox_violations", labels={"node": host.id}
            ).increment()
            host.world.trace.emit(
                self.env.now, host.id, "agent.violation",
                agent=agent.agent_id, error=str(violation),
            )
            self._finish(agent, outcome="killed")
            return
        except MigrationError as error:
            self.failures += 1
            host.world.trace.emit(
                self.env.now, host.id, "agent.stranded",
                agent=agent.agent_id, error=str(error),
            )
            self._finish(agent, outcome="stranded")
            return
        except Exception as error:  # noqa: BLE001 - agent code is foreign
            self.failures += 1
            host.world.trace.emit(
                self.env.now, host.id, "agent.crashed",
                agent=agent.agent_id,
                error=f"{type(error).__name__}: {error}",
            )
            self._finish(agent, outcome="crashed")
            return
        self._finish(agent, outcome="completed")

    def _guarded_arrival(
        self, agent: Agent, context: AgentContext
    ) -> Generator:
        """Run ``on_arrival`` inside the stay's provider session."""
        try:
            yield from agent.on_arrival(context)
        finally:
            context.close()

    def _finish(self, agent: Agent, outcome: str) -> None:
        host = self.require_host()
        self.hosted.pop(agent.agent_id, None)
        final_state = dict(agent.state)
        final_state["outcome"] = outcome
        self.completed[agent.agent_id] = final_state
        host.world.metrics.counter(f"agents.{outcome}").increment()
        event = self._completion_events.pop(agent.agent_id, None)
        if event is not None and not event.triggered:
            event.succeed(final_state)

    # -- migration ---------------------------------------------------------------------

    def _transfer(
        self,
        agent: Agent,
        state: Dict[str, object],
        target_id: str,
        parent: object = None,
    ) -> Generator:
        """Ship ``state`` under ``agent``'s code to ``target_id``.

        Shared by migration and cloning.  Raises
        :class:`MigrationError` on any failure or refusal.
        """
        host = self.require_host()
        if target_id == host.id:
            raise MigrationError(f"agent {agent.agent_id} is already on {host.id}")
        capsule = assemble_capsule(
            sender=host.id,
            purpose="agent",
            code_units=[type(agent).to_unit()],
            data_units=[
                DataUnit("agent-state", state, estimate_size(state))
            ],
            built_at=self.env.now,
        )
        sign_seconds = sign_capsule(host.keypair, capsule)
        yield from host.execute(sign_seconds * WORK_UNITS_PER_SECOND)

        def build() -> Message:
            return Message(
                source=host.id,
                destination=target_id,
                kind=KIND_TRANSFER,
                payload={"capsule": capsule},
                size_bytes=capsule.size_bytes,
            )

        try:
            reply = yield from request_with_retry(
                host, build, timeout=self.migration_timeout, parent=parent
            )
        except (Unreachable, TransportTimeout, RequestTimeout) as error:
            raise MigrationError(
                f"agent {agent.agent_id}: transfer to {target_id} failed "
                f"({type(error).__name__})"
            ) from error
        outcome = reply.payload or {}
        if not outcome.get("accepted"):
            raise MigrationError(
                f"agent {agent.agent_id}: {target_id} refused arrival "
                f"({outcome.get('reason', 'no reason given')})"
            )

    def _migrate(
        self, agent: Agent, target_id: str, parent: object = None
    ) -> Generator:
        host = self.require_host()
        tracer = host.world.tracer
        span = tracer.start(
            "agent.migrate",
            host.id,
            parent=parent,
            agent=agent.agent_id,
            to=target_id,
        )
        started = self.env.now
        state = dict(agent.state)
        state["hops"] = int(state.get("hops", 0)) + 1
        try:
            yield from self._transfer(agent, state, target_id, parent=span)
        except MigrationError:
            host.world.metrics.counter("agents.migration_failures").increment()
            tracer.finish(span, status="error", error="MigrationError")
            raise
        host.world.metrics.counter("agents.migrations").increment()
        host.world.metrics.histogram("agents.migration_seconds").observe(
            self.env.now - started
        )
        tracer.finish(span)
        agent.state = state  # committed: the shipped state is canonical

    def _clone(self, agent: Agent, target_id: str) -> Generator:
        host = self.require_host()
        state = dict(agent.state)
        state["hops"] = int(state.get("hops", 0)) + 1
        clones = int(agent.state.get("clones_made", 0)) + 1  # type: ignore[arg-type]
        state["agent_id"] = f"{agent.agent_id}.c{clones}"
        state["clones_made"] = 0
        yield from self._transfer(agent, state, target_id)
        agent.state["clones_made"] = clones
        host.world.metrics.counter("agents.clones").increment()
        return state["agent_id"]

    def _handle_transfer(self, message: Message) -> Generator:
        host = self.require_host()
        capsule = (message.payload or {})["capsule"]
        try:
            yield from host.admit_capsule(capsule, OP_ACCEPT_AGENT)
        except SecurityError as error:
            host.rejected_capsules += 1
            refusal = {"accepted": False, "reason": str(error)}
            yield host.reply_to(
                message,
                KIND_ACK,
                payload=refusal,
                size_bytes=estimate_size(refusal),
            )
            return
        unit = capsule.code_units[0]
        agent_class = unit.instantiate()
        agent = agent_class()
        agent.state = dict(capsule.data_unit("agent-state").payload)
        yield host.reply_to(
            message, KIND_ACK, payload={"accepted": True}, size_bytes=32
        )
        host.world.trace.emit(
            self.env.now, host.id, "agent.arrived",
            agent=agent.agent_id, origin=message.source,
        )
        host.world.metrics.counter("agents.arrivals").increment()
        self._run(agent, message.trace_context)

    # -- Paradigm protocol -------------------------------------------------------

    def invoke(
        self,
        task: InvocationTask,
        target,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Run ``task`` by sending a :class:`TaskAgent` to the target
        host(s) (Paradigm protocol).

        The agent visits each target, calls the service named
        ``task.name`` there, and carries the results home.  A lost or
        stranded agent raises :class:`MigrationError`, which the
        pipeline treats as transient: the whole itinerary is relaunched
        with backoff (``paradigm.ma.retries`` counts the relaunches).
        """
        policy = DEFAULT_RETRY if retry is None else retry
        scalar = isinstance(target, str)
        targets = [target] if scalar else list(target or [])

        def attempt(span: object) -> Generator:
            agent_id = self._launch(
                TaskAgent(),
                {
                    "service": task.name,
                    "payload": task.payload,
                    "targets": list(targets),
                },
                trip=span,
            )
            # As in ``MobileHost.request``: wait on the completion event
            # alone; the deadline's one callback settles it with None and
            # unregisters it, so a late completion finds no event.
            finished = self.completion(agent_id)
            timer = self.env.timeout(task.timeout)

            def expire(_timer: Event) -> None:
                if finished._value is PENDING:
                    self._completion_events.pop(agent_id, None)
                    finished.succeed(None)

            timer.callbacks.append(expire)
            yield finished
            # Cancel the deadline (a no-op once it has fired).
            timer.callbacks = None
            final = self.completed.get(agent_id)
            if final is None:
                raise MigrationError(
                    f"agent {agent_id} did not return within "
                    f"{task.timeout}s"
                )
            if final.get("error") is not None:
                raise from_wire(final["error"])
            if final.get("outcome") != "completed":
                raise MigrationError(
                    f"agent {agent_id} ended {final.get('outcome')!r}"
                )
            results = list(final.get("results", []))
            return results[0] if scalar else results

        return (
            yield from self.pipeline.run(
                "ma.invoke",
                attempt,
                retry=policy,
                transient=(MigrationError,),
                task=task.name,
            )
        )


class TaskAgent(Agent):
    """The agent rendering of an :class:`InvocationTask`.

    Visits each target host, calls the service named by
    ``state["service"]`` with ``state["payload"]``, accumulates the
    results, and carries them home.  Failed hops are retried in place
    under :attr:`hop_retry` through
    :meth:`AgentContext.migrate_with_retry`, which counts each retry in
    ``paradigm.ma.retries`` and traces each wait as an
    ``invoke.backoff`` span.  A hop that stays impossible — or a
    failing service call — is recorded as a wire-marshalled error in
    ``state["error"]`` for :meth:`AgentRuntime.invoke` to re-raise at
    the launch host.
    """

    code_size = 8_000
    #: Failed hops: three tries, waiting 2 s and then 4 s.
    hop_retry = RetryPolicy(attempts=3, base_delay_s=2.0, multiplier=2.0)

    def _hop(self, context: AgentContext, target: str) -> Generator:
        """Migrate to ``target``; on success control never returns
        (weak mobility).  Returning at all means every retry failed and
        ``state["error"]`` holds the migration error."""
        try:
            yield from context.migrate_with_retry(target, self.hop_retry)
        except MigrationError as error:
            self.state["error"] = to_wire(error)

    def on_arrival(self, context: AgentContext) -> Generator:
        state = self.state
        state.setdefault("results", [])
        state.setdefault("index", 0)
        state.setdefault("error", None)
        targets: List[str] = list(state.get("targets", []))  # type: ignore[arg-type]
        home = str(state["home"])

        while state.get("error") is None and int(state["index"]) < len(targets):  # type: ignore[arg-type]
            index = int(state["index"])  # type: ignore[arg-type]
            target = targets[index]
            if target != context.host_id:
                yield from self._hop(context, target)
                continue  # only reached when the hop failed for good
            try:
                result = yield from context.invoke_local(
                    str(state.get("service")), state.get("payload")
                )
            except Exception as error:  # noqa: BLE001 - service code is foreign
                state["error"] = to_wire(error)
                break
            state["results"].append(result)  # type: ignore[union-attr]
            state["index"] = index + 1
            context.note_served()
        if context.host_id == home:
            return
        yield from self._hop(context, home)
        # Still here: stranded away from home with results undeliverable.
        if state.get("error") is None:
            state["error"] = to_wire(
                MigrationError(
                    f"agent {self.agent_id} could not return home to {home}"
                )
            )
