"""Exception hierarchy shared by every subsystem of :mod:`repro`.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class.  Subsystems define their own
narrower subclasses here (rather than in their own packages) so that the
hierarchy can be inspected in one place and no import cycles arise
between substrate packages.

This module also owns the **wire marshalling registry** used by the
invocation pipeline (:mod:`repro.core.invocation`): a remote failure
crosses the network as a plain payload dict and is rebuilt into a typed
exception on the caller's side.  :func:`to_wire` serialises any
exception; :func:`from_wire` reverses it, falling back to
:class:`RemoteExecutionError` for error types this process does not
know.  Paradigm modules must not hand-roll ``{"error_type": ...}``
dict literals — a guard test enforces that the registry stays the only
place wire payloads are shaped.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Type

#: Wire payload key carrying the registered exception type name.
WIRE_TYPE_KEY = "error_type"
#: Wire payload key carrying the human-readable error text.
WIRE_ERROR_KEY = "error"
#: Wire payload key carrying the remote traceback text, when one exists.
WIRE_REMOTE_KEY = "remote_error"

#: Registered name -> exception class (populated automatically for every
#: :class:`ReproError` subclass; see :func:`register_wire_error`).
_WIRE_TYPES: Dict[str, Type["ReproError"]] = {}


def register_wire_error(cls: Type["ReproError"]) -> Type["ReproError"]:
    """Register ``cls`` for wire round-tripping under its class name.

    Every :class:`ReproError` subclass registers itself on definition;
    this hook exists for plugins defining exception types outside this
    module.  Returns ``cls`` so it can be used as a decorator.
    """
    _WIRE_TYPES[cls.__name__] = cls
    return cls


def wire_error_types() -> Mapping[str, Type["ReproError"]]:
    """A read-only view of the registered wire error types."""
    return dict(_WIRE_TYPES)


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        register_wire_error(cls)


register_wire_error(ReproError)


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class StopSimulation(SimulationError):
    """Raised internally to halt :meth:`Environment.run` at a target event."""

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class EmptySchedule(SimulationError):
    """The event queue ran dry before the requested stop condition."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network-substrate failures."""


class Unreachable(NetworkError):
    """No usable link currently exists towards the destination."""


class TransportTimeout(NetworkError):
    """A reliable-delivery attempt exhausted its retry/time budget."""


class MessageTooLarge(NetworkError):
    """Payload exceeds the interface's maximum transfer size."""


# ---------------------------------------------------------------------------
# Logical mobility units
# ---------------------------------------------------------------------------


class CodebaseError(ReproError):
    """Base class for codebase / LMU packaging failures."""


class UnitNotFound(CodebaseError):
    """The requested code or data unit is not present in the codebase."""


class VersionConflict(CodebaseError):
    """An installation would clash with an incompatible installed version."""


class DependencyError(CodebaseError):
    """Dependency closure could not be computed (missing or cyclic)."""


class QuotaExceeded(CodebaseError):
    """Installing a unit would exceed the host's storage quota."""


# ---------------------------------------------------------------------------
# Security
# ---------------------------------------------------------------------------


class SecurityError(ReproError):
    """Base class for security-layer failures."""


class SignatureInvalid(SecurityError):
    """A capsule's signature does not verify against its contents."""


class UntrustedPrincipal(SecurityError):
    """The signer is not present in the verifier's trust store."""


class PolicyViolation(SecurityError):
    """The security policy forbids the attempted operation."""


class SandboxViolation(SecurityError):
    """Sandboxed code exceeded its resource budget or escaped its rights."""


# ---------------------------------------------------------------------------
# Middleware core
# ---------------------------------------------------------------------------


class MiddlewareError(ReproError):
    """Base class for middleware-core failures."""


class ServiceNotFound(MiddlewareError):
    """Discovery produced no provider for the requested service type."""


class RequestTimeout(MiddlewareError):
    """A request/reply exchange received no answer within its deadline."""


class RemoteExecutionError(MiddlewareError):
    """A remotely evaluated unit raised; carries the remote traceback text."""

    def __init__(self, message: str, remote_error: str = "") -> None:
        super().__init__(message)
        self.remote_error = remote_error


class MigrationError(MiddlewareError):
    """An agent migration failed (refused, unreachable, or lost)."""


class ComponentError(MiddlewareError):
    """A middleware component could not be installed, started, or swapped."""


# ---------------------------------------------------------------------------
# Tuple space
# ---------------------------------------------------------------------------


class TupleSpaceError(ReproError):
    """Base class for tuple-space failures."""


# ---------------------------------------------------------------------------
# Exception <-> wire marshalling
# ---------------------------------------------------------------------------


def to_wire(error: BaseException) -> Dict[str, object]:
    """Serialise ``error`` into the payload dict shipped in error replies.

    Registered :class:`ReproError` subclasses travel under their class
    name and are rebuilt as the same type by :func:`from_wire`; foreign
    exceptions (application/guest code) keep their class name too, but
    the receiving side falls back to :class:`RemoteExecutionError` since
    it cannot (and should not) reconstruct arbitrary types.
    """
    text = str(error) or type(error).__name__
    if not isinstance(error, ReproError):
        # Foreign errors keep the "ClassName: message" remote-traceback
        # shape applications expect in ``remote_error``.
        text = f"{type(error).__name__}: {error}"
    payload: Dict[str, object] = {
        WIRE_ERROR_KEY: text,
        WIRE_TYPE_KEY: type(error).__name__,
    }
    remote = getattr(error, "remote_error", "")
    if remote:
        payload[WIRE_REMOTE_KEY] = str(remote)
    return payload


def remote_failure(text: str, error_type: str = "") -> Dict[str, object]:
    """The wire payload for a failure that only exists as *text* remotely.

    Used when the remote side holds an error string rather than a live
    exception (a sandboxed guest's converted failure): the caller always
    rebuilds it as :class:`RemoteExecutionError` carrying the text.
    """
    payload: Dict[str, object] = {
        WIRE_ERROR_KEY: text,
        WIRE_TYPE_KEY: "RemoteExecutionError",
        WIRE_REMOTE_KEY: text,
    }
    if error_type:
        payload["remote_error_type"] = error_type
    return payload


def from_wire(payload: Optional[Mapping[str, object]]) -> "ReproError":
    """Rebuild the typed exception carried by an error-reply payload.

    Unknown (or missing) ``error_type`` values — application exception
    classes, skewed versions — fall back to
    :class:`RemoteExecutionError` with the remote text attached, so a
    caller can always ``except ReproError``.
    """
    payload = payload or {}
    name = str(payload.get(WIRE_TYPE_KEY, ""))
    text = str(payload.get(WIRE_ERROR_KEY, "")) or "remote failure"
    remote = str(payload.get(WIRE_REMOTE_KEY, "") or text)
    cls = _WIRE_TYPES.get(name)
    if cls is None:
        return RemoteExecutionError(text, remote_error=remote)
    try:
        error = cls(text)
    except TypeError:  # a subclass with a stricter constructor
        return RemoteExecutionError(text, remote_error=remote)
    if isinstance(error, RemoteExecutionError):
        error.remote_error = remote
    return error
