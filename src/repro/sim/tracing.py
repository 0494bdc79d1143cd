"""Per-kind accounting of simulation happenings.

Every substrate emits happenings (``time``, ``source``, ``kind``,
free-form fields) into one :class:`TraceLog`.  The log stores no
records: it counts each kind and forwards the happening to an armed
:class:`~repro.obs.health.FlightRecorder`.  Causal spans
(:class:`~repro.obs.spans.SpanTracer`) are the stored trace.
"""

from __future__ import annotations

from typing import Dict


class TraceLog:
    """Always-on per-kind counters plus an optional flight-recorder feed."""

    def __init__(self) -> None:
        self._kind_counts: Dict[str, int] = {}
        #: Optional :class:`~repro.obs.health.FlightRecorder` sink that
        #: keeps the last N happenings per source.
        self.flight = None

    def emit(self, time: float, source: str, kind: str, **fields: object) -> None:
        """Count one happening and feed it to the flight recorder."""
        flight = self.flight
        if flight is not None:
            flight.record(time, source, kind, fields)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1

    def count(self, kind: str) -> int:
        """How many happenings of ``kind`` were emitted."""
        return self._kind_counts.get(kind, 0)
