"""Structured trace log of simulation happenings.

Traces are the debugging and analysis backbone: every substrate emits
records (``time``, ``source``, ``kind``, free-form fields) into one
:class:`TraceLog`, which supports filtering and compact rendering.
Tracing defaults to a bounded ring so long experiments do not exhaust
memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced happening."""

    time: float
    source: str
    kind: str
    fields: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        details = " ".join(f"{key}={value}" for key, value in self.fields.items())
        return f"[{self.time:12.6f}] {self.source:<24} {self.kind:<20} {details}"


class TraceLog:
    """Bounded in-memory log of :class:`TraceRecord` entries.

    Per-kind counters run even while the log is disabled, so cheap
    always-on event accounting survives with record storage off.
    """

    def __init__(self, max_records: int = 100_000, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: Deque[TraceRecord] = deque(maxlen=max_records)
        self._kind_counts: Dict[str, int] = {}
        #: Optional :class:`~repro.obs.health.FlightRecorder` sink fed
        #: *before* the enabled check, so last-N per-node context is
        #: captured even on runs that keep tracing off.
        self.flight = None

    def emit(self, time: float, source: str, kind: str, **fields: object) -> None:
        """Record one happening; a disabled log only counts it."""
        flight = self.flight
        if flight is not None:
            flight.record(time, source, kind, fields)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if self.enabled:
            self._records.append(TraceRecord(time, source, kind, fields))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def count(self, kind: str) -> int:
        """How many records of ``kind`` were emitted, including those
        emitted while the log was disabled."""
        return self._kind_counts.get(kind, 0)

    def select(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        where: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Records matching every given filter, in emission order."""
        selected = []
        for record in self._records:
            if kind is not None and record.kind != kind:
                continue
            if source is not None and record.source != source:
                continue
            if where is not None and not where(record):
                continue
            selected.append(record)
        return selected

    def render(self, limit: int = 50) -> str:
        """The last ``limit`` records as aligned text lines."""
        records = list(self._records)[-limit:]
        return "\n".join(record.render() for record in records)

    def clear(self) -> None:
        self._records.clear()
        self._kind_counts.clear()
