"""Key pairs and signatures (simulated asymmetric cryptography).

The middleware behaviour under test is *accept/reject plus overhead
accounting*, not cryptographic strength, so signatures are HMAC-SHA256
tags dressed in an asymmetric API: a :class:`KeyPair` signs; the
corresponding :class:`PublicKey` verifies.  The public key keeps the
MAC secret in a private closure — honest simulation code never reads
it, and the semantics that matter hold exactly:

* verification succeeds only with the genuine signer's public key;
* any change to the signed bytes invalidates the tag;
* a verifier that does not hold (trust) the public key cannot verify.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from typing import Optional

#: Modelled signature tag size on the wire, in bytes.
SIGNATURE_BYTES = 64
#: Modelled CPU cost of signing/verification: fixed + per-byte seconds
#: on the reference (speed 1.0) host.  Calibrated to 2002-era handheld
#: figures: ~10 ms fixed, ~100 ns/byte hashing.
SIGN_FIXED_S = 0.010
SIGN_PER_BYTE_S = 1.0e-7
VERIFY_FIXED_S = 0.008
VERIFY_PER_BYTE_S = 1.0e-7


@dataclass(frozen=True)
class Signature:
    """A detached signature tag naming its signer."""

    signer: str
    tag: str
    size_bytes: int = SIGNATURE_BYTES

    def __repr__(self) -> str:
        return f"<Signature by {self.signer} {self.tag[:12]}...>"


class PublicKey:
    """The verification half of a key pair."""

    def __init__(self, principal: str, secret: bytes) -> None:
        self.principal = principal
        self.__secret = secret  # name-mangled: simulation code keeps out

    def verify(self, data: bytes, signature: Signature) -> bool:
        """True when ``signature`` is this principal's tag over ``data``."""
        if signature.signer != self.principal:
            return False
        expected = hmac.new(self.__secret, data, hashlib.sha256).hexdigest()
        return hmac.compare_digest(expected, signature.tag)

    def fingerprint(self) -> str:
        """Stable short identifier for display and trust-store keys."""
        return hashlib.sha256(self.__secret).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"<PublicKey {self.principal} {self.fingerprint()}>"


class KeyPair:
    """The signing half, owned by one principal."""

    def __init__(self, principal: str, secret: bytes) -> None:
        if not principal:
            raise ValueError("principal name must be non-empty")
        self.principal = principal
        self.__secret = secret
        self.public_key = PublicKey(principal, secret)

    @classmethod
    def generate(cls, principal: str, rng: random.Random) -> "KeyPair":
        """A fresh key pair, minted from the caller's seeded ``rng``.

        The rng is mandatory: an implicit ``random.Random()`` fallback
        would mint OS-entropy keys, silently breaking whole-run
        reproducibility (fingerprints, trust decisions, and capsule
        sizes would differ between same-seed runs).  Draw from a named
        world stream, e.g. ``world.streams.once(f"keys.{principal}")``.
        """
        if rng is None:
            raise ValueError(
                "KeyPair.generate requires a seeded rng; keys minted from "
                "ambient entropy are not reproducible"
            )
        secret = bytes(rng.getrandbits(8) for _ in range(32))
        return cls(principal, secret)

    def sign(self, data: bytes) -> Signature:
        tag = hmac.new(self.__secret, data, hashlib.sha256).hexdigest()
        return Signature(signer=self.principal, tag=tag)

    def __repr__(self) -> str:
        return f"<KeyPair {self.principal}>"


def signing_delay(size_bytes: int, cpu_speed: float = 1.0) -> float:
    """Modelled CPU seconds to sign ``size_bytes`` on a host of given speed."""
    return (SIGN_FIXED_S + size_bytes * SIGN_PER_BYTE_S) / cpu_speed


def verification_delay(size_bytes: int, cpu_speed: float = 1.0) -> float:
    """Modelled CPU seconds to verify ``size_bytes`` on a host of given speed."""
    return (VERIFY_FIXED_S + size_bytes * VERIFY_PER_BYTE_S) / cpu_speed
