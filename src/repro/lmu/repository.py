"""Code repositories: catalogues that COD requests are answered from.

A repository is the server-side store of publishable units — the
"trusted third party (a centralised source)" of the paper's dynamic-
update scenario, and equally the per-device catalogue a peer answers
from "in an ad-hoc scenario".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import UnitNotFound
from .units import CodeUnit, Requirement


class CodeRepository:
    """A catalogue of code units, multiple versions per name.

    Each name maps to a tuple of its published units, oldest version
    first.  Units are frozen, so one unit may sit in many repositories
    at once: :func:`~repro.core.invocation.provision_task` publishes
    the same unit object on every server of a fleet.

    ``metrics`` (a :class:`~repro.sim.metrics.MetricsRegistry`, or
    None) receives ``repository.*`` counters and the catalogue-size
    gauge so serving activity shows up in run reports.
    """

    def __init__(
        self, name: str = "repository", metrics: Optional[Any] = None
    ) -> None:
        self.name = name
        self.metrics = metrics
        self._catalog: Dict[str, Tuple[CodeUnit, ...]] = {}

    def publish(self, unit: CodeUnit) -> None:
        """Add (or replace) one unit version in the catalogue."""
        units = self._catalog.get(unit.name, ())
        version = unit.version
        self._catalog[unit.name] = (
            tuple(held for held in units if held.version < version)
            + (unit,)
            + tuple(held for held in units if held.version > version)
        )
        if self.metrics is not None:
            self.metrics.counter("repository.publishes").increment()
            self.metrics.gauge("repository.units").set(len(self._catalog))

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def names(self) -> List[str]:
        return sorted(self._catalog)

    def latest(self, name: str) -> CodeUnit:
        """The newest published version of ``name``."""
        units = self._catalog.get(name)
        if not units:
            raise UnitNotFound(f"repository has no unit {name!r}")
        return units[-1]

    def resolve(self, requirement: Requirement) -> CodeUnit:
        """The newest version satisfying ``requirement``.

        This is the resolver plugged into capsule building.
        """
        units = self._catalog.get(requirement.name)
        if not units:
            if self.metrics is not None:
                self.metrics.counter("repository.misses").increment()
            raise UnitNotFound(
                f"repository has no unit {requirement.name!r}"
            )
        for unit in reversed(units):
            if requirement.satisfied_by(unit):
                break
        else:
            if self.metrics is not None:
                self.metrics.counter("repository.misses").increment()
            raise UnitNotFound(
                f"no published version of {requirement.name} satisfies "
                f"{requirement}; have "
                f"{sorted(str(held.version) for held in units)}"
            )
        if self.metrics is not None:
            self.metrics.counter("repository.resolutions").increment()
        return unit

    def total_bytes(self) -> int:
        """Catalogue footprint if everything were preinstalled (E2)."""
        return sum(units[-1].size_bytes for units in self._catalog.values())
