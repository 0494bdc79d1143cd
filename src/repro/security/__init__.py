"""Security layer: keys, signatures, trust, policy, and the sandbox.

Implements the paper's security story — "digital signatures can be used
to ensure the safety and authenticity of the downloaded code" plus "a
protected environment to host mobile agents and serve REV requests" —
with simulated (HMAC-based) asymmetric signatures and a sandbox
(:mod:`repro.security.sandbox`) whose
:class:`~repro.security.sandbox.ExecutionContext` runs one guest and
meters its CPU, scratch storage, and service calls against its
principal's :class:`~repro.security.policy.QuotaGrant`.  See
docs/SECURITY.md.
"""

from .keys import (
    SIGN_FIXED_S,
    SIGN_PER_BYTE_S,
    SIGNATURE_BYTES,
    VERIFY_FIXED_S,
    VERIFY_PER_BYTE_S,
    KeyPair,
    PublicKey,
    Signature,
    signing_delay,
    verification_delay,
)
from .policy import (
    ALL_OPERATIONS,
    CLIENT_ONLY_POLICY,
    OP_ACCEPT_AGENT,
    OP_ACCEPT_REV,
    OP_INSTALL_CODE,
    OP_SERVE_COD,
    OP_UPDATE_MIDDLEWARE,
    OPEN_POLICY,
    SIGNED_POLICY,
    QuotaGrant,
    SecurityPolicy,
)
from .sandbox import WORK_UNITS_PER_SECOND, ExecuteResult, ExecutionContext
from .signing import capsule_verification_delay, sign_capsule, verify_capsule
from .truststore import TrustStore

__all__ = [
    "ALL_OPERATIONS",
    "CLIENT_ONLY_POLICY",
    "ExecuteResult",
    "ExecutionContext",
    "KeyPair",
    "OPEN_POLICY",
    "OP_ACCEPT_AGENT",
    "OP_ACCEPT_REV",
    "OP_INSTALL_CODE",
    "OP_SERVE_COD",
    "OP_UPDATE_MIDDLEWARE",
    "PublicKey",
    "QuotaGrant",
    "SIGNATURE_BYTES",
    "SIGNED_POLICY",
    "SIGN_FIXED_S",
    "SIGN_PER_BYTE_S",
    "SecurityPolicy",
    "Signature",
    "TrustStore",
    "VERIFY_FIXED_S",
    "VERIFY_PER_BYTE_S",
    "WORK_UNITS_PER_SECOND",
    "capsule_verification_delay",
    "sign_capsule",
    "signing_delay",
    "verification_delay",
    "verify_capsule",
]
