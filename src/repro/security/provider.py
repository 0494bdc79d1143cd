"""The sandbox provider: the guest-execution substrate of one host.

A :class:`SandboxProvider` owns the lifecycle of guest execution on one
host: it opens a metered *session* for a principal under a
:class:`~repro.security.policy.QuotaGrant`, executes guest callables
inside that session's :class:`~repro.security.sandbox.ExecutionContext`
(never letting any guest exception class escape into the kernel), and
closes the session with a final per-run :class:`Metrics` record — work
units consumed, peak scratch bytes held, and service-call counts.

Quotas preempt deterministically at charge points: a charge that would
cross the work quota never lands, and the guest's metered work is
clamped to exactly the grant, so two same-seed runs terminate a hostile
guest at the same charge with the same tally.

The provider emits the ``security.*`` metric families with per-node
labeled children (``labels={"node": ...}``), so hostile-guest activity
shows up both per host and in fleet rollups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import SandboxViolation, to_wire, WIRE_ERROR_KEY, WIRE_TYPE_KEY
from .policy import QuotaGrant
from .sandbox import ExecutionContext


@dataclass(frozen=True)
class Metrics:
    """Resource consumption of one guest run (or one whole session)."""

    work_units: float = 0.0
    peak_storage_bytes: int = 0
    service_calls: int = 0


@dataclass
class SessionInfo:
    """One guest-execution session on a provider."""

    host_id: str
    principal: str
    context: ExecutionContext

    def totals(self) -> Metrics:
        """Cumulative consumption across every run in this session."""
        context = self.context
        return Metrics(
            work_units=context.work_used,
            peak_storage_bytes=context.peak_storage_bytes,
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
    """Session lifecycle + contained guest execution on one host.

    ``metrics`` (a :class:`~repro.sim.metrics.MetricsRegistry`, or
    None) receives the ``security.*`` families with per-node labeled
    children.
    """

    def __init__(self, host_id: str, metrics: Optional[Any] = None) -> None:
        self.host_id = host_id
        self.metrics = metrics
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
    ) -> SessionInfo:
        """Open a metered session for ``principal`` under ``grant``."""
        context = ExecutionContext(
            self.host_id, principal, grant, services=services
        )
        return SessionInfo(
            host_id=self.host_id, principal=principal, context=context
        )

    def close_session(self, session: SessionInfo) -> Metrics:
        """Close the session; returns its cumulative :class:`Metrics`."""
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
        work_before = context.work_used
        calls_before = context.service_calls
        if self.metrics is not None:
            self._m_runs.increment()
        try:
            value = guest(context, *args)
        except SandboxViolation as violation:
            if self.metrics is not None:
                self._m_violations.increment()
            return _failure(context, violation, work_before, calls_before)
        except BaseException as error:  # noqa: BLE001 - guests are untrusted
            if self.metrics is not None:
                self._m_errors.increment()
            return _failure(context, error, work_before, calls_before)
        if self.metrics is not None:
            self._m_work.observe(context.work_used)
        return ExecuteResult(
            ok=True,
            value=value,
            work_used=context.work_used,
            metrics=_run_metrics(context, work_before, calls_before),
        )


def _failure(
    context: ExecutionContext,
    error: BaseException,
    work_before: float,
    calls_before: int,
) -> ExecuteResult:
    wire = to_wire(error)
    return ExecuteResult(
        ok=False,
        error=str(wire.get(WIRE_ERROR_KEY)),
        error_wire=wire,
        work_used=context.work_used,
        metrics=_run_metrics(context, work_before, calls_before),
    )


def _run_metrics(
    context: ExecutionContext, work_before: float, calls_before: int
) -> Metrics:
    """One run's own consumption: the deltas since it started."""
    return Metrics(
        work_units=context.work_used - work_before,
        peak_storage_bytes=context.peak_storage_bytes,
        service_calls=context.service_calls - calls_before,
    )
