"""Logical mobility units: the things that move.

Following Fuggetta, Picco & Vigna, what migrates is *code* (behaviour),
*data* (state), or both.  Here a :class:`CodeUnit` names a versioned
behaviour with declared dependencies and a modelled wire size; its
``factory`` produces a fresh executable instance on the host that runs
it.  A :class:`DataUnit` is a named blob of state.

In the authors' Java systems these were class files and serialised
objects; the Python stand-ins keep the semantics that matter to the
middleware — naming, versioning, dependency closure, transferability,
installability, and execution on arrival.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from ..errors import CodebaseError

_VERSION_RE = re.compile(r"^(\d+)\.(\d+)(?:\.(\d+))?$")


@dataclass(frozen=True, order=True)
class Version:
    """A ``major.minor.patch`` version with SemVer-ish compatibility."""

    major: int
    minor: int
    patch: int = 0

    @classmethod
    def parse(cls, text: str) -> "Version":
        """Parse ``"major.minor[.patch]"``; equal texts share one
        parsed instance (see :func:`_parse_version`)."""
        return _parse_version(cls, text)

    def compatible_with(self, requested: "Version") -> bool:
        """True when this version satisfies a request for ``requested``:
        same major line, and not older than requested."""
        return self.major == requested.major and self >= requested

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


# Bounded: COD requests carry version texts from peers.
@lru_cache(maxsize=1024)
def _parse_version(cls: type, text: str) -> Version:
    """:meth:`Version.parse`, memoised per text.  A malformed text
    raises on every call: ``lru_cache`` never stores an exception."""
    match = _VERSION_RE.match(text.strip())
    if not match:
        raise CodebaseError(f"malformed version {text!r}")
    major, minor, patch = match.groups()
    return cls(int(major), int(minor), int(patch or 0))


@dataclass(frozen=True)
class Requirement:
    """A dependency on another unit: by name, at a minimum version."""

    name: str
    min_version: Version = Version(0, 0, 0)

    @classmethod
    def parse(cls, text: str) -> "Requirement":
        """Parse ``"name"`` or ``"name>=1.2.3"``."""
        if ">=" in text:
            name, version_text = text.split(">=", 1)
            return cls(name.strip(), Version.parse(version_text))
        return cls(text.strip())

    @property
    def any_version(self) -> bool:
        """True for a bare requirement: any version satisfies it."""
        return self.min_version == Version(0, 0, 0)

    def satisfied_by(self, unit: "CodeUnit") -> bool:
        if unit.name != self.name:
            return False
        return self.any_version or unit.version.compatible_with(self.min_version)

    def __str__(self) -> str:
        if self.min_version == Version(0, 0, 0):
            return self.name
        return f"{self.name}>={self.min_version}"


#: A factory produces one fresh executable instance of the unit's
#: behaviour.  The instance must be callable as ``instance(context, *args)``.
UnitFactory = Callable[[], Callable]


@dataclass(frozen=True)
class CodeUnit:
    """A named, versioned, transferable behaviour."""

    name: str
    version: Version
    factory: UnitFactory
    size_bytes: int
    requires: Tuple[Requirement, ...] = ()
    #: Human description, shown in catalogues.
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CodebaseError("code unit needs a non-empty name")
        if self.size_bytes < 0:
            raise CodebaseError(f"negative size for unit {self.name!r}")

    @property
    def qualified_name(self) -> str:
        return f"{self.name}@{self.version}"

    def instantiate(self) -> Callable:
        """A fresh executable instance of this unit's behaviour."""
        return self.factory()

    def __repr__(self) -> str:
        return f"<CodeUnit {self.qualified_name} {self.size_bytes}B>"


def code_unit(
    name: str,
    version: str,
    factory: UnitFactory,
    size_bytes: int,
    requires: Optional[List[str]] = None,
    description: str = "",
) -> CodeUnit:
    """Convenience constructor taking string versions and requirements."""
    return CodeUnit(
        name=name,
        version=Version.parse(version),
        factory=factory,
        size_bytes=size_bytes,
        requires=tuple(Requirement.parse(req) for req in (requires or [])),
        description=description,
    )


@dataclass(frozen=True)
class DataUnit:
    """A named blob of transferable state."""

    name: str
    payload: object
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise CodebaseError(f"negative size for data unit {self.name!r}")

    def __repr__(self) -> str:
        return f"<DataUnit {self.name} {self.size_bytes}B>"


@dataclass
class UnitStats:
    """Usage bookkeeping the eviction policies consult."""

    installed_at: float = 0.0
    last_used: float = 0.0
    use_count: int = 0
    pinned: bool = False
    touched: List[float] = field(default_factory=list, repr=False)

    def touch(self, now: float) -> None:
        self.last_used = now
        self.use_count += 1
