"""The sandbox: a protected, budgeted environment for guest code.

Guest code (a REV body, an agent's ``on_arrival`` step, a downloaded
unit's behaviour, a hostile guest) runs inside an
:class:`ExecutionContext` that meters abstract *work units*, scratch
storage, and host service calls.  Exceeding a budget raises
:class:`SandboxViolation` inside the guest.  :meth:`ExecutionContext.run`
runs one guest and converts any guest exception into a structured
:class:`ExecuteResult`, so a hostile or buggy unit can never crash its
host.  An agent's stay spans simulated time, so it ends through
:meth:`ExecutionContext.settle`, the rule ``run`` ends with.

The budgets come from the principal's
:class:`~repro.security.policy.QuotaGrant`.  A guest is preempted at
the charge point: a charge that would cross the work quota never
lands, and usage is clamped to exactly the budget.  Preemption is
final: a guest that catches its violation still fails with it.

Work units map to simulated CPU time through the host's ``cpu_speed``
(see :data:`WORK_UNITS_PER_SECOND`); the middleware yields that delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import SandboxViolation, to_wire, WIRE_ERROR_KEY, WIRE_TYPE_KEY
from ..lmu.serializer import estimate_size
from .policy import DEFAULT_GRANT, QuotaGrant

#: Work units one reference-speed (1.0) host executes per simulated second.
WORK_UNITS_PER_SECOND = 1_000_000.0


@dataclass
class ExecuteResult:
    """Outcome of one guest run (:meth:`ExecutionContext.run`).

    Failures carry the typed wire payload built by
    :func:`repro.errors.to_wire` — callers rebuild the exception with
    :func:`repro.errors.from_wire` instead of matching raw class-name
    strings.  ``work_used`` is the run's metered work (the figure call
    sites pay as simulated CPU time).
    """

    ok: bool
    value: object = None
    #: Typed wire-error payload (:func:`repro.errors.to_wire` shape),
    #: None on success.
    error_wire: Optional[Dict[str, object]] = None
    work_used: float = 0.0
    peak_storage_bytes: int = 0
    service_calls: int = 0

    @property
    def error(self) -> Optional[str]:
        """The failure's wire text; None on success."""
        if self.error_wire is None:
            return None
        return str(self.error_wire.get(WIRE_ERROR_KEY))

    @property
    def error_type(self) -> Optional[str]:
        """The failed exception's registered wire-type name."""
        if self.error_wire is None:
            return None
        return str(self.error_wire.get(WIRE_TYPE_KEY)) or None

    @property
    def violated(self) -> bool:
        """Whether the run ended in a :class:`SandboxViolation`."""
        return self.error_type == SandboxViolation.__name__


class ExecutionContext:
    """What guest code sees of its host: metered CPU, storage, services.

    Its budgets are the caps of ``grant`` (:data:`DEFAULT_GRANT` when
    none is given).  One context meters one guest run.
    """

    def __init__(
        self,
        host_id: str,
        principal: str,
        grant: QuotaGrant = DEFAULT_GRANT,
        services: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.host_id = host_id
        self.principal = principal
        self.work_budget = grant.work_units
        self.storage_budget_bytes = grant.storage_bytes
        #: Host-provided API surface (discovery, messaging hooks, ...).
        self.services: Dict[str, Any] = dict(services or {})
        #: None means unmetered (count only); an int is a hard cap.
        self.service_call_budget = grant.service_calls
        self.work_used = 0.0
        self.service_calls = 0
        self.peak_storage_bytes = 0
        self._storage: Dict[str, object] = {}
        # Running byte total, maintained on store/discard so the budget
        # check is O(1) instead of re-serializing the whole scratch dict
        # on every insert.  ``_entry_bytes`` remembers each key's
        # contribution so overwrites and discards subtract exactly what
        # they added.
        self._storage_bytes = 0
        self._entry_bytes: Dict[str, int] = {}
        #: The first :class:`SandboxViolation` of the run (a quota
        #: check's, or one the guest raised itself); once set, the run
        #: fails with it whatever the guest does next.
        self.violation: Optional[SandboxViolation] = None

    # -- execution ------------------------------------------------------------

    def run(self, guest: Any, *args: object) -> ExecuteResult:
        """Run ``guest(self, *args)`` under this context's metering.

        No guest exception class escapes into the kernel: budget
        violations and guest bugs of *any* type (``BaseException``
        included) come back as a failed :class:`ExecuteResult` whose
        ``error_wire`` carries the typed payload (:meth:`settle`)."""
        try:
            value = guest(self, *args)
        except BaseException as error:  # noqa: BLE001 - guests are untrusted
            return self.settle(error=error)
        return self.settle(value)

    def settle(
        self, value: object = None, error: Optional[BaseException] = None
    ) -> ExecuteResult:
        """End this context's run with ``value`` or ``error``; a
        recorded violation (or one raised now) beats any other ending."""
        if isinstance(error, SandboxViolation) and self.violation is None:
            self.violation = error
        if self.violation is not None:
            error = self.violation
        ok = error is None
        return ExecuteResult(
            ok=ok,
            value=value if ok else None,
            error_wire=None if ok else to_wire(error),
            work_used=self.work_used,
            peak_storage_bytes=self.peak_storage_bytes,
            service_calls=self.service_calls,
        )

    def _violate(self, message: str) -> SandboxViolation:
        """Record (the first) and return a violation for the caller to
        raise."""
        violation = SandboxViolation(message)
        if self.violation is None:
            self.violation = violation
        return violation

    # -- CPU metering --------------------------------------------------------

    def charge(self, work_units: float) -> None:
        """Account ``work_units`` of computation; raises on exhaustion."""
        # ``not >= 0`` also rejects NaN, which would otherwise poison
        # ``work_used`` and silence every later budget check.
        if not work_units >= 0:
            raise ValueError(f"work must be >= 0, got {work_units!r}")
        if self.work_used + work_units > self.work_budget:
            # Deterministic preemption: the charge never lands and usage
            # is clamped to exactly the quota, so the host never pays
            # more CPU than the grant.
            self.work_used = self.work_budget
            raise self._violate(
                f"guest of {self.principal!r} preempted at work quota "
                f"({self.work_budget:.0f} units)"
            )
        self.work_used += work_units

    @property
    def work_remaining(self) -> float:
        return max(0.0, self.work_budget - self.work_used)

    # -- scratch storage -------------------------------------------------------

    def store(self, key: str, value: object) -> None:
        """Put ``value`` in scratch storage, enforcing the byte budget."""
        entry = estimate_size(key) + estimate_size(value)
        projected = self._storage_bytes - self._entry_bytes.get(key, 0) + entry
        if projected > self.storage_budget_bytes:
            raise self._violate(
                f"guest of {self.principal!r} exceeded storage budget "
                f"({self.storage_budget_bytes}B)"
            )
        self._storage[key] = value
        self._entry_bytes[key] = entry
        self._storage_bytes = projected
        if projected > self.peak_storage_bytes:
            self.peak_storage_bytes = projected

    def fetch(self, key: str, default: object = None) -> object:
        return self._storage.get(key, default)

    def discard(self, key: str) -> None:
        if key in self._storage:
            del self._storage[key]
            self._storage_bytes -= self._entry_bytes.pop(key)

    @property
    def storage_bytes_used(self) -> int:
        return self._storage_bytes

    def storage_bytes_recomputed(self) -> int:
        """Full O(n) recomputation of the scratch byte total — the
        reference the running total is tested against."""
        return sum(
            estimate_size(key) + estimate_size(value)
            for key, value in self._storage.items()
        )

    # -- services ------------------------------------------------------------

    def service(self, name: str) -> Any:
        """A host service by name; raises when the host offers none or
        the grant's service-call quota is spent."""
        if (
            self.service_call_budget is not None
            and self.service_calls >= self.service_call_budget
        ):
            raise self._violate(
                f"guest of {self.principal!r} exceeded service-call quota "
                f"({self.service_call_budget} calls)"
            )
        try:
            handle = self.services[name]
        except KeyError:
            raise self._violate(
                f"host {self.host_id} offers no service {name!r} to guests"
            ) from None
        self.service_calls += 1
        return handle
