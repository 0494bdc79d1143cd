"""The race-based request and process dispatcher, kept as an oracle.

:class:`RaceRequestHost` is a :class:`~repro.core.MobileHost` that
waits for each reply the way the host did before the request path
became a wait on the reply event alone: it races the reply event
against the deadline with an ``any_of`` condition, and it dispatches
inbound messages from a generator :class:`~repro.sim.Process` that
loops over inbox gets.  :class:`RaceAgentRuntime` races a mobile-agent
trip's completion against its deadline the same way.
``test_request_oracle.py`` drives both hosts through identical
scripted worlds and asserts that every observable — each request's
outcome and resume time, the metrics snapshot, spans and sampled
series — comes out the same.

The host under test arms its first inbox get from an urgent start
event scheduled in its constructor; the oracle turns that event into a
no-op and starts its dispatch process right after it, in the adjacent
queue slot.  Both happen at construction, before any message can reach
the host.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core import AgentRuntime, MobileHost
from repro.core.agents import TaskAgent
from repro.core.invocation import DEFAULT_RETRY, InvocationTask, RetryPolicy
from repro.errors import MigrationError, NetworkError, RequestTimeout, from_wire
from repro.net import Message


class RaceRequestHost(MobileHost):
    """A :class:`MobileHost` with the ``any_of`` request and the
    process dispatch loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dispatcher = self.env.process(
            self._dispatch_loop(), name=f"dispatch:{self.node.id}"
        )

    def _arm_inbound(self, _event: object = None) -> None:
        """The start event's callback: the dispatch process arms the
        gets instead."""

    def request(
        self,
        message: Message,
        timeout: float = 30.0,
        parent: object = None,
        attempt: int = 1,
    ) -> Generator:
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
        timeout_event = self.env.timeout(timeout)
        fired = yield self.env.any_of([reply_event, timeout_event])
        self._close_request(message)
        if reply_event in fired:
            self._m_request_rtt.observe(self.env.now - started)
            tracer.finish(span)
            return reply_event.value
        self._m_request_timeouts.increment()
        tracer.finish(span, status="error", error="RequestTimeout")
        raise RequestTimeout(
            f"{self.id}: no reply to {message.kind} #{message.id} from "
            f"{message.destination} within {timeout}s"
        )

    def _dispatch_loop(self) -> Generator:
        while True:
            message = yield self.node.inbox.get()
            if not self.node.up:
                continue
            if message.corrupted:
                self._m_corrupt_discarded.increment()
                self.world.trace.emit(
                    self.env.now, self.id, "host.corrupt_discarded",
                    msg=message.kind,
                )
                continue
            if message.in_reply_to is not None:
                if message.in_reply_to in self._pending:
                    event = self._pending.pop(message.in_reply_to)
                    tracer = self.world.tracer
                    if tracer.enabled:
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
                    event.succeed(message)
                    continue
                if message.in_reply_to in self._closed_requests:
                    self._discard_stale_reply(message)
                    continue
            handler = self._handlers.get(message.kind)
            if handler is None:
                self.unhandled_messages += 1
                self._m_unhandled.increment()
                self.world.trace.emit(
                    self.env.now, self.id, "host.unhandled", msg=message.kind
                )
                continue
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


class RaceAgentRuntime(AgentRuntime):
    """An :class:`AgentRuntime` whose trips race completion against the
    deadline with ``any_of``."""

    def invoke(
        self,
        task: InvocationTask,
        target,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
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
            yield self.env.any_of(
                [self.completion(agent_id), self.env.timeout(task.timeout)]
            )
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
