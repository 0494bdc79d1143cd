"""Security policies: what a host lets foreign code do.

The paper requires "a protected environment to host mobile agents and
serve REV requests".  The policy is the declarative half of that
protection (the :mod:`sandbox` is the mechanism): it decides whether an
operation class is allowed at all, whether the initiating principal is
acceptable, and what resource budget guest code receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import FrozenSet, Mapping, Optional

from ..errors import PolicyViolation

#: Operation classes a policy rules on.
OP_SERVE_COD = "serve-cod"  #: answer code-on-demand fetches
OP_ACCEPT_REV = "accept-rev"  #: evaluate shipped code
OP_ACCEPT_AGENT = "accept-agent"  #: host a migrating agent
OP_INSTALL_CODE = "install-code"  #: install received units locally
OP_UPDATE_MIDDLEWARE = "update-middleware"  #: hot-swap own components

ALL_OPERATIONS = frozenset(
    {
        OP_SERVE_COD,
        OP_ACCEPT_REV,
        OP_ACCEPT_AGENT,
        OP_INSTALL_CODE,
        OP_UPDATE_MIDDLEWARE,
    }
)


@dataclass(frozen=True)
class QuotaGrant:
    """Resource quotas one principal's guest executions receive.

    The grant names the provider flavor that enforces it:
    ``"inprocess"`` meters post hoc (the cooperative default), while
    ``"strict"`` preempts deterministically at charge points.  A
    ``service_calls`` of ``None`` counts host-service lookups without
    capping them.
    """

    work_units: float = 1_000_000_000.0
    storage_bytes: int = 1_000_000
    service_calls: Optional[int] = None
    provider: str = "inprocess"


#: The grant a principal receives when no ``quota_grants`` key matches
#: it: 1e9 work units is ~17 minutes of reference CPU (see
#: :mod:`repro.security.sandbox`).  A policy that wants another default
#: maps ``"*"`` to its own grant.
DEFAULT_GRANT = QuotaGrant()


@dataclass(frozen=True)
class SecurityPolicy:
    """One host's stance towards logical mobility.

    ``require_signatures`` gates every *inbound* capsule on a valid,
    trusted signature.  ``allowed_operations`` whitelists operation
    classes.  ``allowed_principals`` (when given) further narrows who
    may initiate them — ``None`` means any *trusted* principal.
    """

    require_signatures: bool = True
    allowed_operations: FrozenSet[str] = field(default_factory=lambda: ALL_OPERATIONS)
    allowed_principals: Optional[FrozenSet[str]] = None
    #: Per-principal quota grants for guest executions (REV body, agent
    #: step).  Keys are principal names or ``fnmatch`` globs
    #: (``"hostile:*"``, ``"task:crunch*"``, ``"*"``); lookup prefers an
    #: exact match, then the first glob that matches in insertion order,
    #: then :data:`DEFAULT_GRANT`.
    quota_grants: Mapping[str, QuotaGrant] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = self.allowed_operations - ALL_OPERATIONS
        if unknown:
            raise ValueError(f"unknown operations in policy: {sorted(unknown)}")

    def check(self, operation: str, principal: Optional[str] = None) -> None:
        """Raise :class:`PolicyViolation` unless the operation is allowed."""
        if operation not in ALL_OPERATIONS:
            raise ValueError(f"unknown operation {operation!r}")
        if operation not in self.allowed_operations:
            raise PolicyViolation(f"policy forbids {operation}")
        if (
            self.allowed_principals is not None
            and principal is not None
            and principal not in self.allowed_principals
        ):
            raise PolicyViolation(
                f"policy forbids {operation} for principal {principal!r}"
            )

    def grant_for(self, principal: str) -> QuotaGrant:
        """The :class:`QuotaGrant` this policy hands ``principal``."""
        grant = self.quota_grants.get(principal)
        if grant is not None:
            return grant
        for pattern, candidate in self.quota_grants.items():
            if fnmatchcase(principal, pattern):
                return candidate
        return DEFAULT_GRANT


#: Accept everything from anyone, unsigned — closed-lab testing only.
OPEN_POLICY = SecurityPolicy(require_signatures=False)

#: The paper's recommended stance: everything allowed, but signed.
SIGNED_POLICY = SecurityPolicy(require_signatures=True)

#: A locked-down client: uses other people's services, hosts nothing.
CLIENT_ONLY_POLICY = SecurityPolicy(
    require_signatures=True,
    allowed_operations=frozenset({OP_INSTALL_CODE, OP_UPDATE_MIDDLEWARE}),
)
