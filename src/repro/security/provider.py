"""Pluggable sandbox providers: the guest-execution substrate.

A :class:`SandboxProvider` owns the lifecycle of guest execution on one
host: it opens a metered *session* for a principal under a
:class:`~repro.security.policy.QuotaGrant`, executes guest callables
inside that session's :class:`~repro.security.sandbox.ExecutionContext`
(never letting any guest exception class escape into the kernel), and
closes the session with a final per-run :class:`Metrics` record — work
units consumed, peak scratch bytes held, wall simulated seconds, and
service-call counts.

Two providers ship:

* :class:`InProcessProvider` — the historical flavor: budgets are
  checked *post hoc* (a charge lands, then trips the violation), which
  matches the cooperative metering the middleware has always done;
* :class:`StrictProvider` — hard quotas with **deterministic
  preemption at charge points**: a charge that would cross the quota
  never lands; the guest's metered work is clamped to exactly the
  grant, so two same-seed runs terminate a hostile guest at the same
  charge with the same tally.

Providers emit the ``security.*`` metric families with per-node
labeled children (``labels={"node": ...}``), so hostile-guest activity
shows up both per host and in fleet rollups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import SandboxViolation, to_wire, WIRE_ERROR_KEY, WIRE_TYPE_KEY
from .policy import QuotaGrant
from .sandbox import WORK_UNITS_PER_SECOND, ExecutionContext


@dataclass(frozen=True)
class Metrics:
    """Resource consumption of one guest run (or one whole session)."""

    work_units: float = 0.0
    peak_storage_bytes: int = 0
    wall_sim_seconds: float = 0.0
    service_calls: int = 0


@dataclass
class SessionInfo:
    """One open guest-execution session on a provider."""

    session_id: str
    host_id: str
    principal: str
    provider: str
    context: ExecutionContext
    #: CPU speed of the hosting node, for the wall-sim-seconds figure.
    cpu_speed: float = 1.0
    opened_at: float = 0.0
    closed_at: Optional[float] = None
    executions: int = 0

    @property
    def open(self) -> bool:
        return self.closed_at is None

    def totals(self) -> Metrics:
        """Cumulative consumption across every run in this session."""
        context = self.context
        return Metrics(
            work_units=context.work_used,
            peak_storage_bytes=context.peak_storage_bytes,
            wall_sim_seconds=context.work_used
            / (WORK_UNITS_PER_SECOND * max(self.cpu_speed, 1e-9)),
            service_calls=context.service_calls,
        )


@dataclass
class ExecuteResult:
    """Outcome of one guest run under a provider.

    Failures carry the typed wire payload built by
    :func:`repro.errors.to_wire` — callers rebuild the exception with
    :func:`repro.errors.from_wire` instead of matching raw class-name
    strings.  ``work_used`` is the session context's cumulative metered
    work (the figure call sites pay as simulated CPU time), while
    ``metrics`` is this run's own delta.
    """

    ok: bool
    value: object = None
    error: Optional[str] = None
    #: Typed wire-error payload (:func:`repro.errors.to_wire` shape),
    #: None on success.
    error_wire: Optional[Dict[str, object]] = None
    work_used: float = 0.0
    metrics: Metrics = field(default_factory=Metrics)

    @property
    def error_type(self) -> Optional[str]:
        """The failed exception's registered wire-type name."""
        if self.error_wire is None:
            return None
        return str(self.error_wire.get(WIRE_TYPE_KEY)) or None


class SandboxProvider:
    """Base provider: session lifecycle + contained guest execution.

    Subclasses set :attr:`name` / :attr:`strict` and inherit the whole
    mechanism — the strict/post-hoc distinction lives in
    :meth:`ExecutionContext.charge`, keyed off the context's ``strict``
    flag this provider sets at :meth:`open_session`.

    ``metrics`` (a :class:`~repro.sim.metrics.MetricsRegistry`, or
    None) receives the ``security.*`` families with per-node labeled
    children.
    """

    name: str = "provider"
    strict: bool = False

    def __init__(self, host_id: str, metrics: Optional[Any] = None) -> None:
        self.host_id = host_id
        self.metrics = metrics
        self._session_counter = 0
        self._m_runs = None
        self._m_violations = None
        self._m_errors = None
        self._m_work = None
        self._m_storage_peak = None
        self._m_service_calls = None
        if metrics is not None:
            labels = {"node": host_id}
            self._m_runs = metrics.counter(
                "security.sandbox_runs", labels=labels
            )
            self._m_violations = metrics.counter(
                "security.sandbox_violations", labels=labels
            )
            self._m_errors = metrics.counter(
                "security.sandbox_errors", labels=labels
            )
            self._m_work = metrics.histogram(
                "security.guest_work", labels=labels
            )
            self._m_storage_peak = metrics.histogram(
                "security.guest_storage_peak", labels=labels
            )
            self._m_service_calls = metrics.counter(
                "security.guest_service_calls", labels=labels
            )

    # -- session lifecycle ----------------------------------------------------

    def open_session(
        self,
        principal: str,
        grant: QuotaGrant,
        services: Optional[Dict[str, Any]] = None,
        now: float = 0.0,
        cpu_speed: float = 1.0,
    ) -> SessionInfo:
        """Open a metered session for ``principal`` under ``grant``."""
        context = ExecutionContext(
            host_id=self.host_id,
            principal=principal,
            work_budget=grant.work_units,
            storage_budget_bytes=grant.storage_bytes,
            services=services,
            service_call_budget=grant.service_calls,
            strict=self.strict,
        )
        self._session_counter += 1
        return SessionInfo(
            session_id=f"{self.host_id}:{self.name}:{self._session_counter}",
            host_id=self.host_id,
            principal=principal,
            provider=self.name,
            context=context,
            cpu_speed=cpu_speed,
            opened_at=now,
        )

    def close_session(
        self, session: SessionInfo, now: float = 0.0
    ) -> Metrics:
        """Close the session; returns its cumulative :class:`Metrics`."""
        session.closed_at = now
        totals = session.totals()
        if self.metrics is not None:
            self._m_storage_peak.observe(float(totals.peak_storage_bytes))
            if totals.service_calls:
                self._m_service_calls.increment(totals.service_calls)
        return totals

    # -- execution ------------------------------------------------------------

    def execute(
        self, session: SessionInfo, guest: Any, *args: object
    ) -> ExecuteResult:
        """Run ``guest(context, *args)`` under this session's metering.

        No guest exception class escapes into the kernel: budget
        violations and guest bugs of *any* type (``BaseException``
        included) come back as a failed :class:`ExecuteResult` whose
        ``error_wire`` carries the typed payload.
        """
        context = session.context
        session.executions += 1
        work_before = context.work_used
        calls_before = context.service_calls
        if self.metrics is not None:
            self._m_runs.increment()
        try:
            value = guest(context, *args)
        except SandboxViolation as violation:
            if self.metrics is not None:
                self._m_violations.increment()
            return self._failure(session, violation, work_before, calls_before)
        except BaseException as error:  # noqa: BLE001 - guests are untrusted
            if self.metrics is not None:
                self._m_errors.increment()
            return self._failure(session, error, work_before, calls_before)
        if self.metrics is not None:
            self._m_work.observe(context.work_used)
        return ExecuteResult(
            ok=True,
            value=value,
            work_used=context.work_used,
            metrics=self._run_metrics(session, work_before, calls_before),
        )

    # -- internals ------------------------------------------------------------

    def _run_metrics(
        self, session: SessionInfo, work_before: float, calls_before: int
    ) -> Metrics:
        context = session.context
        delta = context.work_used - work_before
        return Metrics(
            work_units=delta,
            peak_storage_bytes=context.peak_storage_bytes,
            wall_sim_seconds=delta
            / (WORK_UNITS_PER_SECOND * max(session.cpu_speed, 1e-9)),
            service_calls=context.service_calls - calls_before,
        )

    def _failure(
        self,
        session: SessionInfo,
        error: BaseException,
        work_before: float,
        calls_before: int,
    ) -> ExecuteResult:
        wire = to_wire(error)
        return ExecuteResult(
            ok=False,
            error=str(wire.get(WIRE_ERROR_KEY)),
            error_wire=wire,
            work_used=session.context.work_used,
            metrics=self._run_metrics(session, work_before, calls_before),
        )


class InProcessProvider(SandboxProvider):
    """Post-hoc metering: charges land, then trip the budget check.

    This is the historical sandbox flavor — a guest may overshoot its
    work budget by the size of its final charge before the violation
    fires, which is the right model for cooperative metering of
    trusted-but-buggy guests.
    """

    name = "inprocess"
    strict = False


class StrictProvider(SandboxProvider):
    """Hard quotas with deterministic preemption at charge points.

    A charge that would cross the work quota never lands: the guest's
    metered work is clamped to exactly the grant and the violation
    fires *at* the charge point, so the host never pays (or simulates)
    more CPU than the grant allows.  Service calls past the grant are
    refused the same way.  This is the provider hostile-guest fault
    plans run under.
    """

    name = "strict"
    strict = True
