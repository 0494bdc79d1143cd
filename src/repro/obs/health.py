"""In-run fleet health: per-node SLO monitors and a breach flight recorder.

End-of-run snapshots answer "how did the run go"; this module answers
"which node is going bad *right now*" while the simulation is still in
flight.  Three pieces:

* :class:`SloSpec` — a declarative per-node service-level objective
  over labeled metric families: a numerator family, an optional
  denominator family (rate vs. ratio), an optional sliding sim-time
  window, and strict ``degraded``/``critical`` thresholds with an
  ``above``/``below`` direction.
* :class:`HealthEngine` — piggybacks on the
  :class:`~repro.obs.timeseries.TimeSeriesRecorder` cadence: each sweep
  it evaluates every spec against every labeled child of the referenced
  families and tracks a per-(spec, node) level.  Level *transitions*
  are recorded as deterministic sim-time breach events; worsening
  transitions additionally bump ``health.breaches{node=...}`` (and
  ``health.critical_breaches`` at critical), open a ``health.breach``
  span, and trigger a flight-recorder dump.  An armed engine whose
  SLOs never breach touches nothing — same-seed runs with and without
  it produce bit-identical reports.
* :class:`FlightRecorder` — a per-source ring buffer fed from
  :meth:`TraceLog.emit` even when tracing is disabled, so the last-N
  events of a misbehaving node (plus the fault injector's timeline)
  travel inside the RunReport next to the breach that exposed them.

Everything is keyed on simulated time and evaluated in sorted order,
so health output is as deterministic as the run itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from ..sim.metrics import MetricsRegistry

#: Health levels, worst last; indices order comparisons.
LEVELS = ("ok", "degraded", "critical")

_LEVEL_INDEX = {level: index for index, level in enumerate(LEVELS)}


def worst_level(levels) -> str:
    """The most severe of an iterable of level names ("ok" if empty)."""
    worst = 0
    for level in levels:
        index = _LEVEL_INDEX[level]
        if index > worst:
            worst = index
    return LEVELS[worst]


@dataclass(frozen=True)
class SloSpec:
    """One per-node service-level objective over labeled families.

    The monitored value is ``numerator / denominator`` when a
    denominator family is given (a ratio — e.g. retries per call) and
    the bare numerator otherwise (a count — e.g. stale replies).  With
    ``window_s`` set, both sides are *deltas* over the trailing window
    of sim-time; ``None`` means cumulative since the start of the run.

    Thresholds compare **strictly** (``value > degraded`` for
    ``comparison="above"``, ``value < degraded`` for ``"below"``), so a
    value sitting exactly on a threshold does not breach — a
    ``degraded=0.0`` "above" spec fires on any positive value and stays
    quiet at zero.  ``critical=None`` disables the critical level.
    Ratio specs stay ``ok`` until the window's denominator reaches
    ``min_denominator`` (no verdicts from one-sample noise).
    """

    name: str
    numerator: str
    denominator: Optional[str] = None
    window_s: Optional[float] = None
    degraded: float = 0.0
    critical: Optional[float] = None
    comparison: str = "above"
    min_denominator: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.comparison not in ("above", "below"):
            raise ValueError(
                f"slo {self.name!r}: comparison must be 'above' or "
                f"'below', got {self.comparison!r}"
            )
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError(f"slo {self.name!r}: window_s must be positive")
        if self.critical is not None:
            if self.comparison == "above" and self.critical < self.degraded:
                raise ValueError(
                    f"slo {self.name!r}: critical below degraded"
                )
            if self.comparison == "below" and self.critical > self.degraded:
                raise ValueError(
                    f"slo {self.name!r}: critical above degraded"
                )

    def level(self, value: float) -> str:
        """Classify a monitored value (strict threshold comparisons)."""
        if self.comparison == "above":
            if self.critical is not None and value > self.critical:
                return "critical"
            return "degraded" if value > self.degraded else "ok"
        if self.critical is not None and value < self.critical:
            return "critical"
        return "degraded" if value < self.degraded else "ok"

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "window_s": self.window_s,
            "degraded": self.degraded,
            "critical": self.critical,
            "comparison": self.comparison,
            "min_denominator": self.min_denominator,
            "description": self.description,
        }


class FlightRecorder:
    """Bounded per-source ring buffers of recent trace events.

    Plugged into :class:`~repro.sim.tracing.TraceLog` (``trace.flight``)
    the recorder sees every emitted event, so last-N context is
    available even on runs that keep span tracing off.  Each source
    keeps its own ``deque(maxlen=capacity)``;
    at most ``max_sources`` distinct sources are tracked (later ones
    are dropped — bounded memory beats complete coverage here).
    """

    def __init__(self, capacity: int = 64, max_sources: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_sources < 1:
            raise ValueError("max_sources must be >= 1")
        self.capacity = capacity
        self.max_sources = max_sources
        self._rings: Dict[str, Deque[Tuple[float, str, dict]]] = {}
        self.dropped_sources = 0

    def record(self, time: float, source: str, kind: str, fields: dict) -> None:
        ring = self._rings.get(source)
        if ring is None:
            if len(self._rings) >= self.max_sources:
                self.dropped_sources += 1
                return
            ring = self._rings[source] = deque(maxlen=self.capacity)
        ring.append((time, kind, fields))

    def sources(self) -> List[str]:
        return sorted(self._rings)

    def snapshot(self, source: str) -> List[Dict[str, object]]:
        """The retained events of one source, JSON-ready, oldest first."""
        ring = self._rings.get(source)
        if not ring:
            return []
        return [
            {
                "time": time,
                "kind": kind,
                "fields": _jsonable_fields(fields),
            }
            for time, kind, fields in ring
        ]


def _jsonable_fields(fields: Mapping) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in fields.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


@dataclass
class _SeriesWindow:
    """Trailing-window bookkeeping for one (spec, node, side) series.

    Points are ``(time, cumulative value)``; the delta over the window
    is ``latest - baseline`` where the baseline is the newest point at
    or before the cutoff.  A window that still covers the start of the
    run uses the implicit ``(0, 0.0)`` origin — counters start at zero.
    """

    points: Deque[Tuple[float, float]] = field(default_factory=deque)

    def delta(self, now: float, value: float, window_s: float) -> float:
        points = self.points
        points.append((now, value))
        cutoff = now - window_s
        while len(points) >= 2 and points[1][0] <= cutoff:
            points.popleft()
        baseline = points[0][1] if points[0][0] <= cutoff else 0.0
        return value - baseline


class HealthEngine:
    """Evaluates :class:`SloSpec`s per node on the sampling cadence.

    ``evaluate(now)`` is called by the attached
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` at the end of
    every sweep.  It only *reads* the registry (via
    ``labeled_children`` — no metric is ever created by evaluation), so
    an armed engine with quiet SLOs leaves the run bit-identical to an
    unarmed one; the ``health.*`` counters and spans appear on the
    first worsening transition only.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        slos,
        tracer=None,
        flight: Optional[FlightRecorder] = None,
        label: str = "node",
        max_events: int = 256,
        max_flight_dumps: int = 16,
    ) -> None:
        self.metrics = metrics
        self.slos: Tuple[SloSpec, ...] = tuple(slos)
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate slo names: {names}")
        self.tracer = tracer
        self.flight = flight
        self.label = label
        self.max_events = max_events
        self.max_flight_dumps = max_flight_dumps
        #: (slo name, node) -> current level name.
        self._levels: Dict[Tuple[str, str], str] = {}
        self._windows: Dict[Tuple[str, str, str], _SeriesWindow] = {}
        self.events: List[Dict[str, object]] = []
        self.dropped_events = 0
        #: node -> flight dump captured at its first worsening breach.
        self.flight_dumps: Dict[str, Dict[str, object]] = {}
        self.evaluations = 0

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """One sweep: classify every (spec, node) and record transitions."""
        self.evaluations += 1
        for slo in self.slos:
            numerators = self.metrics.labeled_children(
                slo.numerator, self.label
            )
            denominators = (
                self.metrics.labeled_children(slo.denominator, self.label)
                if slo.denominator is not None
                else None
            )
            nodes = set(numerators)
            if denominators is not None:
                nodes.update(denominators)
            for node in sorted(nodes):
                value = self._value(slo, node, now, numerators, denominators)
                if value is None:
                    continue
                level = slo.level(value)
                key = (slo.name, node)
                previous = self._levels.get(key, "ok")
                if level != previous:
                    self._levels[key] = level
                    self._transition(now, slo, node, previous, level, value)

    def _value(self, slo, node, now, numerators, denominators):
        numerator = _scalar(numerators.get(node))
        if slo.window_s is not None:
            numerator = self._window(
                slo.name, node, "num", now, numerator, slo.window_s
            )
        if denominators is None:
            return numerator
        denominator = _scalar(denominators.get(node))
        if slo.window_s is not None:
            denominator = self._window(
                slo.name, node, "den", now, denominator, slo.window_s
            )
        if denominator < slo.min_denominator:
            return None
        return numerator / denominator

    def _window(self, slo_name, node, side, now, value, window_s):
        key = (slo_name, node, side)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = _SeriesWindow()
        return window.delta(now, value, window_s)

    # -- transitions ---------------------------------------------------------

    def _transition(self, now, slo, node, previous, level, value) -> None:
        if len(self.events) < self.max_events:
            self.events.append(
                {
                    "time": now,
                    "slo": slo.name,
                    "node": node,
                    "from": previous,
                    "to": level,
                    "value": value,
                }
            )
        else:
            self.dropped_events += 1
        if _LEVEL_INDEX[level] <= _LEVEL_INDEX[previous]:
            return  # recovery: recorded above, but never instrumented
        self.metrics.counter(
            "health.breaches", labels={self.label: node}
        ).increment()
        if level == "critical":
            self.metrics.counter(
                "health.critical_breaches", labels={self.label: node}
            ).increment()
        if self.tracer is not None:
            span = self.tracer.start(
                "health.breach",
                node,
                slo=slo.name,
                level=level,
                value=value,
            )
            self.tracer.finish(
                span, status="error" if level == "critical" else "ok"
            )
        if (
            self.flight is not None
            and node not in self.flight_dumps
            and len(self.flight_dumps) < self.max_flight_dumps
        ):
            self.flight_dumps[node] = {
                "time": now,
                "slo": slo.name,
                "level": level,
                "value": value,
                "events": self.flight.snapshot(node),
                "faults": self.flight.snapshot("faults"),
            }

    # -- inspection ----------------------------------------------------------

    def node_states(self) -> Dict[str, str]:
        """``node -> worst current level`` across every spec."""
        states: Dict[str, List[str]] = {}
        for (_slo, node), level in self._levels.items():
            states.setdefault(node, []).append(level)
        return {node: worst_level(states[node]) for node in sorted(states)}

    def verdicts(self) -> Dict[str, Dict[str, str]]:
        """``slo -> node -> final level`` for every evaluated pair."""
        verdicts: Dict[str, Dict[str, str]] = {}
        for (slo, node), level in sorted(self._levels.items()):
            verdicts.setdefault(slo, {})[node] = level
        return verdicts

    @property
    def breached(self) -> bool:
        return bool(self.events)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form: the ``health`` section of a RunReport."""
        return {
            "slos": [slo.as_dict() for slo in self.slos],
            "states": self.node_states(),
            "verdicts": self.verdicts(),
            "events": list(self.events),
            "dropped_events": self.dropped_events,
            "evaluations": self.evaluations,
        }


def render_health(
    name: str,
    health: Mapping[str, object],
    flight: Optional[Mapping[str, object]] = None,
    top: int = 20,
) -> str:
    """A report's ``health`` and ``flight`` sections as text.

    SLO and sweep counts, per-node states, ``slo -> node`` verdicts,
    the first ``top`` breach transitions and one line per
    flight-recorder dump: what ``repro health`` prints and what
    :meth:`~repro.obs.report.RunReport.render` embeds.
    """
    states = health.get("states") or {}
    events = health.get("events") or []
    verdicts = health.get("verdicts") or {}
    slos = health.get("slos") or []
    lines = [
        f"fleet health — {name}",
        f"  {len(slos)} slo(s), {health.get('evaluations', 0)} sweeps, "
        f"{len(events)} transition(s)"
        + (
            f" ({health.get('dropped_events', 0)} dropped)"
            if health.get("dropped_events")
            else ""
        ),
    ]
    if states:
        lines.append("\n  node states (worst across slos):")
        width = max(len(node) for node in states)
        for node in sorted(states):
            marker = {"ok": " ", "degraded": "~", "critical": "!"}.get(
                states[node], "?"
            )
            lines.append(f"    {marker} {node:<{width}}  {states[node]}")
    if verdicts:
        lines.append("\n  verdicts (slo -> node -> final level):")
        for slo_name in sorted(verdicts):
            nodes = verdicts[slo_name]
            parts = ", ".join(
                f"{node}={nodes[node]}" for node in sorted(nodes)
            )
            lines.append(f"    {slo_name}: {parts}")
    if events:
        shown = events[:top]
        lines.append(
            f"\n  breach timeline (first {len(shown)} of {len(events)}):"
        )
        for event in shown:
            lines.append(
                f"    t={event['time']:<8g} {event['node']:<12} "
                f"{event['slo']:<16} {event['from']} -> {event['to']} "
                f"(value={event['value']:g})"
            )
    if flight:
        lines.append(f"\n  flight-recorder dumps ({len(flight)} node(s)):")
        for node in sorted(flight):
            dump = flight[node]
            lines.append(
                f"    {node}: captured t={dump.get('time')} on "
                f"slo={dump.get('slo')} -> {dump.get('level')}; "
                f"{len(dump.get('events', []))} event(s), "
                f"{len(dump.get('faults', []))} fault(s)"
            )
    return "\n".join(lines)


def _scalar(metric) -> float:
    """The monitored scalar of a metric child (0.0 for an absent one)."""
    if metric is None:
        return 0.0
    value = getattr(metric, "value", None)
    if value is not None:
        return value
    return float(metric.observed)
