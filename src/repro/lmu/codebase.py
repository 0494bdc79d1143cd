"""The local codebase: a host's installed code units.

The codebase is what COD updates and what "conserving resources" in the
paper means concretely: installed units occupy a storage quota, usage is
tracked, and an eviction policy reclaims space for new installs —
never evicting *pinned* units (the middleware's own components).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import DependencyError, QuotaExceeded, UnitNotFound, VersionConflict
from .units import CodeUnit, Requirement, UnitStats, Version

#: Given candidate (unit, stats) pairs, return the eviction victim order.
EvictionPolicy = Callable[[List[Tuple[CodeUnit, UnitStats]]], List[CodeUnit]]


def lru_policy(candidates: List[Tuple[CodeUnit, UnitStats]]) -> List[CodeUnit]:
    """Evict least-recently-used first."""
    ranked = sorted(candidates, key=lambda pair: (pair[1].last_used, pair[0].name))
    return [unit for unit, _ in ranked]


def lfu_policy(candidates: List[Tuple[CodeUnit, UnitStats]]) -> List[CodeUnit]:
    """Evict least-frequently-used first."""
    ranked = sorted(candidates, key=lambda pair: (pair[1].use_count, pair[0].name))
    return [unit for unit, _ in ranked]


def largest_first_policy(
    candidates: List[Tuple[CodeUnit, UnitStats]]
) -> List[CodeUnit]:
    """Evict the biggest units first (frees space fastest)."""
    ranked = sorted(
        candidates, key=lambda pair: (-pair[0].size_bytes, pair[0].name)
    )
    return [unit for unit, _ in ranked]


class Codebase:
    """Installed units of one host, under a storage quota.

    ``now`` is a clock callback (the middleware passes ``env.now``), so
    the codebase itself has no kernel dependency and is trivially
    testable.
    """

    def __init__(
        self,
        quota_bytes: float = float("inf"),
        eviction: Optional[EvictionPolicy] = lru_policy,
        now: Callable[[], float] = lambda: 0.0,
    ) -> None:
        if quota_bytes <= 0:
            raise ValueError("quota must be positive")
        self.quota_bytes = quota_bytes
        self.eviction = eviction
        self._now = now
        self._units: Dict[str, CodeUnit] = {}
        self._stats: Dict[str, UnitStats] = {}
        self.evictions = 0

    # -- queries ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(unit.size_bytes for unit in self._units.values())

    @property
    def free_bytes(self) -> float:
        return self.quota_bytes - self.used_bytes

    def __contains__(self, name: str) -> bool:
        return name in self._units

    def __len__(self) -> int:
        return len(self._units)

    def installed(self) -> List[CodeUnit]:
        return sorted(self._units.values(), key=lambda unit: unit.name)

    def get(self, name: str) -> CodeUnit:
        try:
            return self._units[name]
        except KeyError:
            raise UnitNotFound(f"unit {name!r} is not installed") from None

    def stats(self, name: str) -> UnitStats:
        self.get(name)
        return self._stats[name]

    def satisfies(self, requirement: Requirement) -> bool:
        unit = self._units.get(requirement.name)
        return unit is not None and requirement.satisfied_by(unit)

    def missing_requirements(self, unit: CodeUnit) -> List[Requirement]:
        """The declared dependencies of ``unit`` not currently satisfied."""
        return [req for req in unit.requires if not self.satisfies(req)]

    def inventory(self) -> Dict[str, Version]:
        """Name -> installed version, for differential COD requests."""
        return {name: unit.version for name, unit in self._units.items()}

    def providers_of(self, capability: str) -> List[CodeUnit]:
        """Installed units advertising an abstract capability tag."""
        return sorted(
            (
                unit
                for unit in self._units.values()
                if capability in unit.provides
            ),
            key=lambda unit: unit.name,
        )

    # -- mutation ----------------------------------------------------------------

    def install(self, unit: CodeUnit, pinned: bool = False) -> None:
        """Install (or upgrade to) ``unit``, evicting if space demands.

        Raises :class:`VersionConflict` when an incompatible (different
        major line or newer) version is already installed, and
        :class:`QuotaExceeded` when eviction cannot free enough space.
        """
        existing = self._units.get(unit.name)
        delta = unit.size_bytes
        if existing is not None:
            if existing.version > unit.version:
                raise VersionConflict(
                    f"{unit.name}: installed {existing.version} is newer "
                    f"than offered {unit.version}"
                )
            if existing.version.major != unit.version.major:
                raise VersionConflict(
                    f"{unit.name}: major line change "
                    f"{existing.version} -> {unit.version} needs explicit "
                    "uninstall"
                )
            delta = unit.size_bytes - existing.size_bytes
        if delta > self.free_bytes:
            self._make_room(delta - self.free_bytes, keep=unit.name)
        was_pinned = self._stats[unit.name].pinned if existing is not None else False
        self._units[unit.name] = unit
        stats = UnitStats(installed_at=self._now(), last_used=self._now())
        stats.pinned = pinned or was_pinned
        self._stats[unit.name] = stats

    def uninstall(self, name: str) -> CodeUnit:
        """Remove a unit, freeing its space.  Pinned units refuse."""
        unit = self.get(name)
        if self._stats[name].pinned:
            raise VersionConflict(f"unit {name!r} is pinned and cannot be removed")
        del self._units[name]
        del self._stats[name]
        return unit

    def pin(self, name: str) -> None:
        self.get(name)
        self._stats[name].pinned = True

    def unpin(self, name: str) -> None:
        self.get(name)
        self._stats[name].pinned = False

    def touch(self, name: str) -> CodeUnit:
        """Record a use of ``name`` (for LRU/LFU) and return the unit."""
        unit = self.get(name)
        self._stats[name].touch(self._now())
        return unit

    def _make_room(self, needed: float, keep: str) -> None:
        if self.eviction is None:
            raise QuotaExceeded(
                f"need {needed:.0f}B more but eviction is disabled"
            )
        candidates = [
            (unit, self._stats[unit.name])
            for unit in self._units.values()
            if not self._stats[unit.name].pinned and unit.name != keep
        ]
        victims = self.eviction(candidates)
        freed = 0.0
        for victim in victims:
            if freed >= needed:
                break
            del self._units[victim.name]
            del self._stats[victim.name]
            self.evictions += 1
            freed += victim.size_bytes
        if freed < needed:
            raise QuotaExceeded(
                f"quota {self.quota_bytes:.0f}B cannot fit unit; "
                f"only {freed:.0f}B evictable of {needed:.0f}B needed"
            )


def dependency_closure(
    roots: List[str],
    resolve: Callable[[Requirement], CodeUnit],
) -> List[CodeUnit]:
    """Dependency-closed install order for ``roots`` (dependencies first).

    ``resolve`` maps a requirement to the unit that satisfies it (the
    local codebase, a repository catalogue, ...).  Raises
    :class:`DependencyError` on cycles; missing units surface whatever
    ``resolve`` raises.
    """
    order: List[CodeUnit] = []
    placed: Dict[str, Version] = {}
    in_progress: List[str] = []
    for root in roots:
        _visit(Requirement.parse(root), resolve, order, placed, in_progress)
    return order


def _visit(
    requirement: Requirement,
    resolve: Callable[[Requirement], CodeUnit],
    order: List[CodeUnit],
    placed: Dict[str, Version],
    in_progress: List[str],
) -> None:
    """Place ``requirement``'s unit after its dependencies.

    A module-level function rather than a closure: a nested recursive
    function reaches itself through its own closure cell, a reference
    cycle every call would leave for the garbage collector.
    """
    if requirement.name in placed:
        if not requirement.any_version and not placed[
            requirement.name
        ].compatible_with(requirement.min_version):
            raise DependencyError(
                f"{requirement.name}: closure already pinned "
                f"{placed[requirement.name]}, but {requirement} needed"
            )
        return
    if requirement.name in in_progress:
        cycle = " -> ".join(in_progress + [requirement.name])
        raise DependencyError(f"dependency cycle: {cycle}")
    in_progress.append(requirement.name)
    unit = resolve(requirement)
    if not requirement.satisfied_by(unit):
        raise DependencyError(
            f"resolver returned {unit.qualified_name}, which does not "
            f"satisfy {requirement}"
        )
    for dependency in unit.requires:
        _visit(dependency, resolve, order, placed, in_progress)
    in_progress.pop()
    placed[unit.name] = unit.version
    order.append(unit)
