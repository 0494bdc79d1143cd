"""Code repositories: catalogues that COD requests are answered from.

A repository is the server-side store of publishable units — the
"trusted third party (a centralised source)" of the paper's dynamic-
update scenario, and equally the per-device catalogue a peer answers
from "in an ad-hoc scenario".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import UnitNotFound
from .units import CodeUnit, Requirement, Version


class CodeRepository:
    """A catalogue of code units, multiple versions per name.

    ``metrics`` (a :class:`~repro.sim.metrics.MetricsRegistry`, or
    None) receives ``repository.*`` counters and the catalogue-size
    gauge so serving activity shows up in run reports.
    """

    def __init__(
        self, name: str = "repository", metrics: Optional[Any] = None
    ) -> None:
        self.name = name
        self.metrics = metrics
        self._catalog: Dict[str, Dict[Version, CodeUnit]] = {}

    def publish(self, unit: CodeUnit) -> None:
        """Add (or replace) one unit version in the catalogue."""
        self._catalog.setdefault(unit.name, {})[unit.version] = unit
        if self.metrics is not None:
            self.metrics.counter("repository.publishes").increment()
            self.metrics.gauge("repository.units").set(len(self._catalog))

    def publish_all(self, units: List[CodeUnit]) -> None:
        for unit in units:
            self.publish(unit)

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def names(self) -> List[str]:
        return sorted(self._catalog)

    def latest(self, name: str) -> CodeUnit:
        """The newest published version of ``name``."""
        versions = self._catalog.get(name)
        if not versions:
            raise UnitNotFound(f"repository has no unit {name!r}")
        return versions[max(versions)]

    def resolve(self, requirement: Requirement) -> CodeUnit:
        """The newest version satisfying ``requirement``.

        This is the resolver plugged into capsule building.
        """
        versions = self._catalog.get(requirement.name)
        if not versions:
            if self.metrics is not None:
                self.metrics.counter("repository.misses").increment()
            raise UnitNotFound(
                f"repository has no unit {requirement.name!r}"
            )
        matching = [
            version
            for version in versions
            if requirement.any_version
            or version.compatible_with(requirement.min_version)
        ]
        if not matching:
            if self.metrics is not None:
                self.metrics.counter("repository.misses").increment()
            raise UnitNotFound(
                f"no published version of {requirement.name} satisfies "
                f"{requirement}; have {sorted(map(str, versions))}"
            )
        if self.metrics is not None:
            self.metrics.counter("repository.resolutions").increment()
        return versions[max(matching)]

    def total_bytes(self) -> int:
        """Catalogue footprint if everything were preinstalled (E2)."""
        return sum(
            self.latest(name).size_bytes for name in self._catalog
        )
