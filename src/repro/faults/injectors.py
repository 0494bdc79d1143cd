"""Kernel-scheduled execution of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` arms a plan on a world: one kernel process
per fault spec sleeps until the scheduled sim-time, applies the fault,
and reverts it when the window closes.  Everything is deterministic —
fault timing comes from the plan, and the per-message decisions
(drop/duplicate/delay/corrupt at ``rate``) draw from the dedicated
``faults.messages`` stream, so arming a plan never perturbs the draws
of existing components and two same-seed runs inject identically.

Topology faults act through the same epoch-bumping mutators the rest of
the system uses (``Interface.disable``, ``NetworkNode.crash``,
``Network.set_link_filter``), so every cache layer sees them.  Message
faults act through the transport's ``faults`` hook: ``drops`` is
consulted before the delivery decision (forced loss is retransmittable
— ARQ and pipeline retries can recover), and ``deliver`` runs after
it, before the inbox put (delays and duplicates are spawned processes
that put their own copies, so sender and acknowledgement timing are
untouched).

Each applied fault increments a ``faults.*`` counter and, when spans
are enabled, wraps the outage window in a ``fault.<kind>`` span.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from ..net import Message, NetworkNode
from ..net.message import RELAY_KIND
from .hostile import HOSTILE_GUESTS
from .plan import MESSAGE_FAULT_KINDS, FaultPlan, FaultSpec


class FaultInjector:
    """Applies a :class:`FaultPlan` to one world, deterministically.

    Construct via :meth:`FaultPlan.inject`.  The injector registers a
    kernel process per spec immediately; nothing fires until the world
    runs.  ``active_faults`` reports how many fault windows are
    currently open (useful for asserting quiescence at scenario end).
    """

    def __init__(self, world, plan: FaultPlan) -> None:
        self.world = world
        self.env = world.env
        self.plan = plan
        self._rng = world.streams.stream("faults.messages")
        #: Open message-fault windows, by kind.
        self._windows: Dict[str, List[FaultSpec]] = {
            kind: [] for kind in MESSAGE_FAULT_KINDS
        }
        #: Open partitions (each a tuple of node-id groups).
        self._partitions: List[Tuple[Tuple[str, ...], ...]] = []
        #: A user-installed link filter to compose with, if any.
        self._base_filter = world.network.link_filter
        self.active_faults = 0
        if any(spec.kind in MESSAGE_FAULT_KINDS for spec in plan):
            world.transport.faults = self
        self.processes = [
            self.env.process(
                self._run_spec(spec), name=f"fault:{spec.kind}@{spec.at:g}"
            )
            for spec in plan
        ]

    # -- schedule driving ----------------------------------------------------

    def _run_spec(self, spec: FaultSpec):
        for occurrence in range(spec.repeat):
            start, _end = spec.window(occurrence)
            if start > self.env.now:
                yield self.env.timeout(start - self.env.now)
            self.active_faults += 1
            self.world.metrics.counter(f"faults.{spec.kind}").increment()
            span = self.world.tracer.start(
                f"fault.{spec.kind}",
                "faults",
                targets=",".join(spec.targets),
                duration=spec.duration,
            )
            try:
                yield from self._apply(spec)
            finally:
                self.active_faults -= 1
                self.world.tracer.finish(span)

    def _apply(self, spec: FaultSpec):
        if spec.kind == "link_flap":
            yield from self._apply_link_flap(spec)
        elif spec.kind == "crash":
            yield from self._apply_crash(spec)
        elif spec.kind == "partition":
            yield from self._apply_partition(spec)
        elif spec.kind == "hostile_guest":
            yield from self._apply_hostile(spec)
        else:
            yield from self._apply_window(spec)

    # -- topology faults -----------------------------------------------------

    def _emit(self, action: str, **data) -> None:
        self.world.trace.emit(self.env.now, "faults", action, **data)

    def _apply_link_flap(self, spec: FaultSpec):
        flapped = []
        for node_id in spec.targets:
            node = self.world.network.node(node_id)
            for interface in node.interfaces.values():
                if spec.technology and interface.technology.name != spec.technology:
                    continue
                if not interface.enabled:
                    continue
                # Remember attachment: disable() detaches, and a plain
                # enable() would leave infrastructure radios dangling.
                flapped.append((interface, interface.attached))
                interface.disable()
        self._emit("fault.link_flap", nodes=list(spec.targets), down_s=spec.duration)
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
        setup = 0.0
        for interface, was_attached in flapped:
            interface.enable()
            if was_attached:
                setup = max(setup, interface.attach())
        self._emit("fault.link_restore", nodes=list(spec.targets))
        if setup > 0:
            yield self.env.timeout(setup)

    def _apply_crash(self, spec: FaultSpec):
        for node_id in spec.targets:
            self.world.network.node(node_id).crash()
        self._emit("fault.crash", nodes=list(spec.targets))
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
            for node_id in spec.targets:
                self.world.network.node(node_id).restart()
            self.world.metrics.counter("faults.restart").increment(
                len(spec.targets)
            )
            self._emit("fault.restart", nodes=list(spec.targets))

    def _apply_hostile(self, spec: FaultSpec):
        """Launch the named hostile guest into each target host.

        The guest runs in the target's sandbox under the principal
        ``hostile:<guest>``, so the host's policy decides the quota
        grant that must terminate it.
        The host then pays the metered CPU the guest actually consumed
        — a hostile guest costs its victim real simulated time, capped
        by the grant.  Outcomes land in per-node ``hostile.*`` metrics:
        ``terminated`` (killed by :class:`SandboxViolation` — the
        invariant), ``escapes`` (anything else — must stay zero).
        """
        metrics = self.world.metrics
        principal = f"hostile:{spec.guest}"
        for node_id in spec.targets:
            host = self.world.hosts.get(node_id)
            if host is None or not host.node.up:
                continue
            labels = {"node": node_id}
            deputy_calls = [0]

            def deputy() -> None:
                deputy_calls[0] += 1

            metrics.counter("hostile.guests", labels=labels).increment()
            result = host.run_guest(
                HOSTILE_GUESTS[spec.guest](),
                principal,
                services={"deputy": deputy, "host_id": node_id},
            )
            self._emit(
                "fault.hostile_guest",
                node=node_id,
                guest=spec.guest,
                terminated=not result.ok,
                error=result.error or "",
                work_units=result.work_used,
                storage_peak=result.peak_storage_bytes,
                service_calls=result.service_calls,
            )
            if result.violated:
                metrics.counter(
                    "hostile.terminated", labels=labels
                ).increment()
            else:
                metrics.counter("hostile.escapes", labels=labels).increment()
            metrics.histogram("hostile.work_units", labels=labels).observe(
                result.work_used
            )
            yield from host.execute(result.work_used)

    def _apply_partition(self, spec: FaultSpec):
        self._partitions.append(spec.groups)
        self._install_filter()
        self._emit(
            "fault.partition",
            groups=[list(group) for group in spec.groups],
            duration=spec.duration,
        )
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
        self._partitions.remove(spec.groups)
        self._install_filter()
        self.world.metrics.counter("faults.heal").increment()
        self._emit("fault.heal", groups=[list(group) for group in spec.groups])

    def _install_filter(self) -> None:
        """Compose open partitions (plus any user filter) into one
        admission predicate and swap it in, bumping the epoch."""
        base = self._base_filter
        if not self._partitions:
            self.world.network.set_link_filter(base)
            return
        memberships = [
            {
                node_id: index
                for index, group in enumerate(partition)
                for node_id in group
            }
            for partition in self._partitions
        ]

        def admits(a: str, b: str) -> bool:
            if base is not None and not base(a, b):
                return False
            for members in memberships:
                side_a = members.get(a)
                side_b = members.get(b)
                if side_a is not None and side_b is not None and side_a != side_b:
                    return False
            return True

        self.world.network.set_link_filter(admits)

    # -- message faults (transport hook) -------------------------------------

    def _hits(self, spec: FaultSpec, destination_id: str, kind: str) -> bool:
        if not spec.matches(destination_id, kind):
            return False
        return spec.rate >= 1.0 or self._rng.random() < spec.rate

    def _apply_window(self, spec: FaultSpec):
        """Open a message-fault window; ``drops``/``deliver`` consult it."""
        self._windows[spec.kind].append(spec)
        self._emit(f"fault.{spec.kind}.open", rate=spec.rate)
        try:
            if spec.duration > 0:
                yield self.env.timeout(spec.duration)
        finally:
            self._windows[spec.kind].remove(spec)
            self._emit(f"fault.{spec.kind}.close")

    def drops(self, message: Message) -> bool:
        """Transport hook: force this in-flight copy to be lost?

        Runs *before* the delivery decision, so a forced loss looks like
        ordinary transit loss — reliable sends retransmit and upper
        layers retry, which is exactly the recovery path under test.
        """
        for spec in self._windows["drop"]:
            if self._hits(spec, message.destination, message.kind):
                self.world.metrics.counter("faults.messages_dropped").increment()
                return True
        return False

    def deliver(self, message: Message, destination: NetworkNode) -> bool:
        """Transport hook, run on a delivered message before its inbox put.

        May mark the payload corrupted, delay the delivery, or schedule
        duplicate copies.  Delays and duplicates run as spawned
        processes so the sender's timing (and the link-layer ACK) is
        exactly what it would have been without the fault.  Returns
        False when it held the message back for a delay (the delayed
        copy puts itself), True when the transport should put it now.
        """
        for spec in self._windows["corrupt"]:
            if self._hits(spec, destination.id, message.kind):
                message.corrupted = True
                self.world.metrics.counter("faults.messages_corrupted").increment()
                break
        # A router relay leg is counted like any message, but no late
        # copy of it is put: relay legs never enter an inbox.
        late = message.kind != RELAY_KIND
        for spec in self._windows["duplicate"]:
            if self._hits(spec, destination.id, message.kind):
                self.world.metrics.counter("faults.messages_duplicated").increment()
                self._emit(
                    "fault.duplicate", msg=message.kind, to=destination.id
                )
                if late:
                    self.env.process(
                        self._deliver_later(
                            replace(message), destination, spec.extra_latency_s
                        ),
                        name=f"fault-dup#{message.id}",
                    )
        extra = 0.0
        for spec in self._windows["delay"]:
            if self._hits(spec, destination.id, message.kind):
                extra += spec.extra_latency_s
        if extra > 0:
            self.world.metrics.counter("faults.messages_delayed").increment()
            self.world.metrics.histogram("faults.extra_latency").observe(extra)
            if late:
                self.env.process(
                    self._deliver_later(message, destination, extra),
                    name=f"fault-delay#{message.id}",
                )
            return False
        return True

    def _deliver_later(
        self, message: Message, destination: NetworkNode, delay_s: float
    ):
        if delay_s > 0:
            yield self.env.timeout(delay_s)
        # The node may have crashed while the copy was in flight.
        if destination.up:
            # Stamp at the *post-delay* put, so the injected stall shows
            # up as transit time in the span analysis, not dead air.
            if self.world.tracer.enabled:
                message.delivered_at = self.env.now
            destination.inbox.put_nowait(message)

    # -- teardown ------------------------------------------------------------

    def detach(self) -> None:
        """Unhook from the transport and restore the user link filter.

        Scheduled-but-unfired fault processes keep running; call this
        only after the plan has fully played out (``active_faults == 0``).
        """
        if self.world.transport.faults is self:
            self.world.transport.faults = None
        self._partitions.clear()
        self.world.network.set_link_filter(self._base_filter)
