"""The shared invocation pipeline: one request/reply substrate.

Following the Fuggetta/Picco/Vigna decomposition the selector already
models (who initiates, what moves), the four mobile-code paradigms
share one interaction skeleton — serialise, transfer, execute
remotely, reply — that deserves one implementation.  This module is
that implementation.  Each paradigm component owns an
:class:`InvocationPipeline` (via :attr:`Component.pipeline`) which
provides:

* **Correlation and timeouts** — :func:`request_with_retry` rebuilds
  the request message per attempt (reply correlation is keyed on the
  message id, so a retry must be a fresh message) and retries
  transient link loss (:data:`TRANSIENT_LINK_ERRORS`) with
  exponential backoff under a :class:`RetryPolicy`.  The paper's
  intermittent-connectivity reality was previously an unhandled hard
  failure.
* **One backoff loop** — :func:`retry_with_backoff` is the only retry
  loop in the middleware: request retries, whole-operation retries
  (:meth:`InvocationPipeline.run`) and mobile agents' hop and
  home-return retries (``AgentContext.migrate_with_retry``) all run
  through it, so every backoff sleep is counted and traced alike.
* **Typed error marshalling** — error replies carry
  :func:`repro.errors.to_wire` payloads and are rebuilt into typed
  exceptions with :func:`repro.errors.from_wire` on the caller's side
  (unknown types fall back to ``RemoteExecutionError``).  Paradigm
  modules no longer hand-roll ``{"error_type": ...}`` dicts.
* **Spans** — :meth:`InvocationPipeline.run` opens the operation span
  (keeping each paradigm's historical root name: ``cs.call``,
  ``rev.evaluate``, ``cod.fetch``…) and propagates it as the parent of
  the ``host.request`` exchange, so one invocation stays one trace
  tree.
* **Uniform metrics** — every paradigm emits
  ``paradigm.<kind>.{calls,served,errors,retries}`` counters and a
  ``paradigm.<kind>.seconds`` histogram (see docs/OBSERVABILITY.md).

On top of the pipeline sits the executable :class:`Paradigm` protocol:
``invoke(task, target)`` plus ``cost(task, link)``, implemented by
``ClientServer``, ``RemoteEvaluation``, ``CodeOnDemand``,
``AgentRuntime``, and the degenerate :class:`LocalExecution` — which
is also the worked example for plugging in a fifth paradigm (see
docs/TUTORIAL.md).  ``ParadigmSelector.select_and_invoke`` ranks the
paradigms a host actually has installed and runs the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..errors import (
    ComponentError,
    TransportTimeout,
    Unreachable,
    from_wire,
    to_wire,
)
from ..lmu import CodeRepository, CodeUnit, code_unit, estimate_size
from ..net import Link, Message
from .adaptation import (  # noqa: F401 - re-exported from here
    PARADIGM_LOCAL,
    CostEstimate,
    InvocationOutcome,
    TaskProfile,
    normalize_targets,
    resolve_profile,
)
from .components import Component

#: Failures worth retrying: the link dropped or the transport gave up.
#: ``RequestTimeout`` is deliberately NOT transient by default — the
#: request may have been served (at-least-once semantics belong to the
#: outbox layer, not here).
TRANSIENT_LINK_ERRORS = (Unreachable, TransportTimeout)

#: The uniform per-paradigm counter set every paradigm emits.
PARADIGM_COUNTERS = ("calls", "served", "errors", "retries")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff over transient link loss.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry *n* (0-based) is ``base_delay_s * multiplier ** n``, capped
    at ``max_delay_s``.  Deterministic on purpose: simulations must
    replay identically, so there is no jitter term.
    """

    attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0

    def delay(self, retry_index: int) -> float:
        return min(
            self.max_delay_s,
            self.base_delay_s * (self.multiplier ** max(0, retry_index)),
        )


#: The pipeline default for ``invoke``: ride out brief link drops.
DEFAULT_RETRY = RetryPolicy()


def retry_with_backoff(
    host,
    attempt: Callable[[int], Generator],
    policy: Optional[RetryPolicy],
    transient: Tuple[type, ...],
    *,
    parent: object = None,
    on_retry: Optional[Callable[[], None]] = None,
) -> Generator:
    """Run ``attempt`` under ``policy``, backing off on ``transient`` errors.

    The middleware's one retry loop (generator).  ``attempt(number)``
    is called with the 1-based attempt number and must return a
    generator.  Only the ``transient`` exception types are retried;
    anything else, and the last attempt's failure, propagates.
    ``policy=None`` means a single attempt.  Before each backoff sleep
    ``on_retry`` is called once, and the sleep is wrapped in an
    ``invoke.backoff`` span under ``parent`` carrying the failed
    ``attempt`` and its ``delay_s``, so retry stalls are attributable
    in the trace analysis (see :mod:`repro.obs.trace`) instead of
    vanishing into dead time.
    """
    attempts = 1 if policy is None else max(1, policy.attempts)
    tracer = host.world.tracer
    number = 1
    while True:
        try:
            return (yield from attempt(number))
        except transient:
            if number >= attempts:
                raise
        if on_retry is not None:
            on_retry()
        delay = policy.delay(number - 1)
        backoff = tracer.start(
            "invoke.backoff",
            host.id,
            parent=parent,
            attempt=number,
            delay_s=delay,
        )
        yield host.env.timeout(delay)
        tracer.finish(backoff)
        number += 1


def request_with_retry(
    host,
    build: Callable[[], Message],
    *,
    timeout: float,
    parent: object = None,
    retry: Optional[RetryPolicy] = None,
    on_retry: Optional[Callable[[], None]] = None,
) -> Generator:
    """One request/reply exchange with transient-loss retry (generator).

    ``build`` is called once per attempt: reply correlation is keyed on
    the message id, so a retry must ship a *fresh* message, not re-send
    a stale one whose pending event was already discarded.  Only
    :data:`TRANSIENT_LINK_ERRORS` are retried, through
    :func:`retry_with_backoff`; ``RequestTimeout`` and typed remote
    errors propagate immediately.  ``retry=None`` means a single
    attempt.  Each attempt's ``host.request`` span carries its 1-based
    attempt index.
    """
    return retry_with_backoff(
        host,
        lambda number: host.request(
            build(), timeout=timeout, parent=parent, attempt=number
        ),
        retry,
        TRANSIENT_LINK_ERRORS,
        parent=parent,
        on_retry=on_retry,
    )


class InvocationPipeline:
    """Per-component engine owning the shared invocation mechanics.

    One pipeline is attached lazily to every component that declares a
    :attr:`~Component.paradigm` (see :attr:`Component.pipeline`); the
    component's client entry points wrap their operation in
    :meth:`run` and their network exchange in :meth:`exchange`, and
    the server side replies errors through :meth:`reply_error` and
    records successes with :meth:`record_served`.
    """

    def __init__(self, component: Component, paradigm: str) -> None:
        self.component = component
        self.paradigm = paradigm
        #: Cached per-node labeled children of the uniform metrics,
        #: keyed by short name (``"calls"``, ``"seconds"``…): one host
        #: per pipeline, so the node label never varies after attach.
        self._label_cache: Dict[str, object] = {}

    # -- plumbing ---------------------------------------------------------------

    @property
    def host(self):
        return self.component.require_host()

    def metric_name(self, name: str) -> str:
        return f"paradigm.{self.paradigm}.{name}"

    def _labeled(self, name: str, kind: str):
        """Create and cache the per-node child of ``metric_name(name)``.

        Only on first use: the run digest covers the metric snapshot,
        so a zero-valued child registered early would change it.
        """
        host = self.host
        child = self._label_cache[name] = getattr(host.world.metrics, kind)(
            self.metric_name(name), labels={"node": host.id}
        )
        return child

    def bump(self, name: str, amount: float = 1) -> None:
        """Increment a uniform counter.

        The counter is the per-node labeled child — it forwards to the
        flat ``paradigm.<kind>.*`` total, so the fleet-wide figure is
        untouched while health monitors can tell which host is burning
        retries.
        """
        counter = self._label_cache.get(name)
        if counter is None:
            counter = self._labeled(name, "counter")
        counter.increment(amount)

    def observe_seconds(self, seconds: float) -> None:
        histogram = self._label_cache.get("seconds")
        if histogram is None:
            histogram = self._labeled("seconds", "histogram")
        histogram.observe(seconds)

    # -- server side ------------------------------------------------------------

    def record_served(self) -> None:
        """Count one successfully served request on this host."""
        self.bump("served")

    def reply_error(self, request: Message, kind: str, error: object):
        """Reply a marshalled error, sized from its actual payload.

        ``error`` is either a live exception (marshalled with
        :func:`~repro.errors.to_wire`) or an already-shaped wire
        payload (e.g. :func:`~repro.errors.remote_failure`).  The
        reply's ``size_bytes`` is ``estimate_size`` of the payload —
        not a hardcoded guess.
        """
        payload = (
            to_wire(error) if isinstance(error, BaseException) else dict(error)
        )
        return self.host.reply_to(
            request, kind, payload=payload, size_bytes=estimate_size(payload)
        )

    # -- client side ------------------------------------------------------------

    def exchange(
        self,
        build: Callable[[], Message],
        *,
        timeout: float,
        error_kinds: Sequence[str] = (),
        parent: object = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Request/reply with link retry and error unmarshalling.

        Replies whose kind is in ``error_kinds`` carry a wire error
        payload and are raised as the typed exception
        :func:`~repro.errors.from_wire` rebuilds.  Link-level retries
        surface in ``paradigm.<kind>.retries``.
        """
        reply = yield from request_with_retry(
            self.host,
            build,
            timeout=timeout,
            parent=parent,
            retry=retry,
            on_retry=lambda: self.bump("retries"),
        )
        if reply.kind in tuple(error_kinds):
            raise from_wire(reply.payload)
        return reply

    def run(
        self,
        op: str,
        attempt: Callable[[object], Generator],
        *,
        retry: Optional[RetryPolicy] = None,
        transient: Tuple[type, ...] = (),
        **span_fields: object,
    ) -> Generator:
        """Run one client operation through the pipeline (generator).

        Opens the operation span ``op`` (passed to ``attempt`` so the
        exchange can parent under it), counts ``calls``, observes
        ``seconds`` on success, counts ``errors`` and error-finishes
        the span on failure.  When ``transient`` exception types and a
        ``retry`` policy are given, the whole operation is re-attempted
        with backoff (used by MA, where a lost agent means relaunching,
        not re-sending a message).
        """
        host = self.host
        tracer = host.world.tracer
        env = host.env
        self.bump("calls")
        span = tracer.start(op, host.id, **span_fields)
        started = env.now
        try:
            result = yield from retry_with_backoff(
                host,
                lambda _number: attempt(span),
                retry,
                transient,
                parent=span,
                on_retry=lambda: self.bump("retries"),
            )
        except BaseException as error:
            self.bump("errors")
            tracer.finish(span, status="error", error=type(error).__name__)
            raise
        self.observe_seconds(env.now - started)
        tracer.finish(span)
        return result


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvocationTask:
    """One paradigm-neutral unit of work — the argument of ``invoke``.

    A task is TaskProfile-like: it carries the cost-model facts the
    selector needs *and* (optionally) an executable ``factory`` so the
    same behaviour can be shipped by REV, fetched by COD, carried by an
    agent, or offered as a CS service (see :func:`provision_task`).

    ``factory() -> body`` where ``body(ctx, payload)`` runs inside a
    sandbox :class:`~repro.security.ExecutionContext` and returns the
    task's result — the exact convention code units already use.
    """

    name: str
    factory: Optional[Callable[[], Callable]] = None
    payload: object = None
    work_units: float = 10_000.0
    code_bytes: int = 8_000
    request_bytes: int = 128
    reply_bytes: int = 256
    result_bytes: int = 256
    #: Request/reply rounds per target host under a CS rendering.
    interactions: int = 1
    expected_reuses: int = 1
    state_bytes: int = 512
    timeout: float = 60.0
    version: str = "1.0.0"

    # What unit() and service_entry() built for this task.  Left
    # unannotated so they are not dataclass fields: they take no part
    # in equality or hashing, and a ``dataclasses.replace`` copy starts
    # without them and builds its own.
    _unit = None
    _service = None

    def unit(self) -> CodeUnit:
        """This task's behaviour as a transferable code unit.

        Built on the first call; every later call returns that same
        unit.  A :class:`CodeUnit` is frozen, so every codebase and
        repository the task reaches shares the one object.
        """
        unit = self._unit
        if unit is None:
            if self.factory is None:
                raise ComponentError(
                    f"task {self.name!r} has no factory: it can only run "
                    "where the behaviour already exists (CS against a "
                    "registered service)"
                )
            unit = code_unit(
                self.name,
                self.version,
                self.factory,
                self.code_bytes,
                description=f"invocation task {self.name}",
            )
            object.__setattr__(self, "_unit", unit)
        return unit

    def service_entry(self) -> Tuple[Callable, float]:
        """The ``(handler, work_units)`` CS entry serving this task.

        Built on the first call and then shared, unchanged, by every
        host the task is provisioned on: the handler runs the task's
        shared unit in the sandbox of the host it is handed.
        """
        entry = self._service
        if entry is None:
            unit = self.unit()

            def handler(args: object, host) -> Tuple[object, int]:
                outcome = host.run_guest(
                    unit.instantiate(),
                    f"task:{unit.name}",
                    args,
                    services={"host_id": host.id},
                    task_name=unit.name,
                )
                if not outcome.ok:
                    raise from_wire(outcome.error_wire)
                return outcome.value, estimate_size(outcome.value)

            entry = (handler, self.work_units)
            object.__setattr__(self, "_service", entry)
        return entry


def run_task_locally(
    host, task: InvocationTask, unit: Optional[CodeUnit] = None
) -> Generator:
    """Execute a task's unit in this host's sandbox (generator helper).

    Pays the metered work at local speed; failures are raised exactly
    as a remote execution would report them (``RemoteExecutionError``
    carrying the guest error text), so local execution honours the
    same contract as the four mobile paradigms.
    """
    unit = unit if unit is not None else task.unit()
    outcome = host.run_guest(
        unit.instantiate(),
        f"task:{task.name}",
        task.payload,
        services={"host_id": host.id},
        task_name=task.name,
    )
    yield from host.execute(outcome.work_used)
    if not outcome.ok:
        raise from_wire(outcome.error_wire)
    return outcome.value


def provision_task(host, task: InvocationTask) -> CodeUnit:
    """Make ``host`` able to serve ``task`` under every paradigm.

    Registers a CS service running the task's unit in the host's
    sandbox (also what a visiting agent calls via ``invoke_local``)
    and publishes the unit in the host's repository so COD clients can
    fetch it.  Returns the published unit.

    Provisioning pays once per task, not once per host: every host
    holds the task's one immutable unit and its one service entry
    (:meth:`InvocationTask.unit`, :meth:`InvocationTask.service_entry`).
    """
    unit = task.unit()
    if task.name not in host.services:
        host.services[task.name] = task.service_entry()
    if host.repository is None:
        host.repository = CodeRepository()
    host.repository.publish(unit)
    return unit


# ---------------------------------------------------------------------------
# The Paradigm protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class Paradigm(Protocol):
    """What a pluggable paradigm implementation looks like.

    Structural: any component exposing these members participates in
    ``ParadigmSelector.select_and_invoke`` — assessment
    (:meth:`cost`) and execution (:meth:`invoke`) finally meet.
    """

    #: The paradigm kind this component executes (``"cs"``, ``"rev"``,
    #: ``"cod"``, ``"ma"``, ``"local"``, or a plugin's own kind).
    paradigm: str
    #: False when the paradigm can run without a usable link.
    requires_link: bool

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None],
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Run ``task`` against ``target`` (generator; returns result)."""

    def cost(
        self, task: Union[InvocationTask, TaskProfile], link: Optional[Link]
    ) -> CostEstimate:
        """Predicted cost of running ``task`` over ``link``."""


# ---------------------------------------------------------------------------
# The degenerate fifth paradigm: run it here
# ---------------------------------------------------------------------------


class LocalExecution(Component):
    """No mobility at all: the task runs in this host's own sandbox.

    Exists so the selector can compare "stay local" against the four
    mobile paradigms through the same protocol (and as the worked
    example of plugging in a fifth paradigm — see docs/TUTORIAL.md).
    """

    kind = "local"
    paradigm = PARADIGM_LOCAL
    requires_link = False
    code_size = 2_000

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        host = self.require_host()

        def attempt(span: object) -> Generator:
            value = yield from run_task_locally(host, task)
            self.pipeline.record_served()
            return value

        return (
            yield from self.pipeline.run("local.run", attempt, task=task.name)
        )
