"""Machine-readable run reports: one JSON per experiment run.

A :class:`RunReport` bundles what a benchmark knows at the end of a
run — environment fingerprint, experiment parameters, the full metrics
snapshot, trace kind counts and the captured span trees — under a
versioned schema, so the perf trajectory of the repository is diffable
across commits and renderable without rerunning anything
(``python -m repro report <experiment>``).
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Dict, List, Optional, TYPE_CHECKING

from ..analysis.tables import render_table
from .fileio import atomic_write_text
from .health import render_health
from .spans import Span, SpanTree, build_trees
from .wallclock import wall_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.world import World

#: Bump on any backwards-incompatible change to the report layout.
#: v3 added the fleet-health sections: ``nodes`` (per-node rollup of
#: labeled metrics), ``health`` (SLO specs, states, breach events from
#: :class:`~repro.obs.health.HealthEngine`), and ``flight``
#: (flight-recorder dumps captured at breach time).  v2 added the
#: ``series`` section (sim-time samples from
#: :class:`~repro.obs.timeseries.TimeSeriesRecorder`).  Older reports
#: load fine — the sections they predate are simply ``None``, and the
#: wall-clock ``profile`` section that reports once carried is ignored.
SCHEMA_VERSION = 3

#: Top-level keys every report carries, in schema order.
SCHEMA_KEYS = (
    "schema",
    "name",
    "created_at",
    "env",
    "params",
    "metrics",
    "kind_counts",
    "spans",
    "series",
    "nodes",
    "health",
    "flight",
)


#: The fields of one health transition, as ``render_health`` formats
#: them.
_HEALTH_EVENT_FIELDS = {
    "time": (int, float),
    "node": str,
    "slo": str,
    "from": str,
    "to": str,
    "value": (int, float),
}


class ReportSchemaError(ValueError):
    """A JSON document that is not a readable run report."""


class RunReport:
    """A serialisable snapshot of one experiment run."""

    def __init__(
        self,
        name: str,
        env: Optional[Dict[str, object]] = None,
        params: Optional[Dict[str, object]] = None,
        metrics: Optional[Dict[str, float]] = None,
        kind_counts: Optional[Dict[str, int]] = None,
        spans: Optional[List[Dict[str, object]]] = None,
        series: Optional[Dict[str, object]] = None,
        nodes: Optional[Dict[str, Dict[str, float]]] = None,
        health: Optional[Dict[str, object]] = None,
        flight: Optional[Dict[str, object]] = None,
        created_at: Optional[float] = None,
        schema: int = SCHEMA_VERSION,
    ) -> None:
        self.schema = schema
        self.name = name
        # Wall clock ONLY for reports built outside any kernel (e.g.
        # analytical benches) — kernel-attached captures go through
        # ``capture``, which defaults to deterministic sim-time.
        self.created_at = wall_time() if created_at is None else created_at
        self.env = env or {}
        self.params = params or {}
        self.metrics = metrics or {}
        self.kind_counts = kind_counts or {}
        self.spans = spans or []
        self.series = series
        self.nodes = nodes
        self.health = health
        self.flight = flight

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls,
        name: str,
        world: "World",
        params: Optional[Dict[str, object]] = None,
        created_at: Optional[float] = None,
    ) -> "RunReport":
        """Snapshot a finished :class:`~repro.core.world.World`.

        ``created_at`` defaults to the world's *simulated* end time, so
        a kernel-attached capture is a pure function of the run — two
        same-seed captures (in one process or across worker processes)
        compare bit-identical without stripping anything.  Wall-clock
        stamps silently broke exactly that, so they are now opt-in:
        pass ``created_at=repro.obs.wallclock.wall_time()`` explicitly
        if a human-facing timestamp really is wanted.
        """
        import repro

        env = {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "repro_version": repro.__version__,
            "seed": getattr(world, "seed", None),
            "sim_time": world.env.now,
            "nodes": len(world.network),
        }
        kind_counts = dict(world.trace._kind_counts)
        spans = [span.to_dict() for span in world.tracer.finished_spans()]
        recorder = getattr(world, "timeseries", None)
        if recorder is not None:
            # Terminal sweep: the state at end-of-run is always the last
            # point, even when the run ended between cadence boundaries.
            recorder.sample(world.env.now)
        metrics = dict(world.summary())
        if spans:
            # Fold the trace-analysis aggregates (critical-path
            # quantiles, attribution shares, orphan counts) into the
            # metric snapshot so ``repro compare`` gates on them like
            # any other metric.  Local import: trace.py is a consumer
            # of reports, not a dependency of every capture.
            from .trace import TraceAnalysis

            metrics.update(TraceAnalysis.from_spans(spans).metrics())
        from ..sim.metrics import rollup_by_label

        nodes = rollup_by_label(metrics) or None
        engine = getattr(world, "health", None)
        health = None
        flight = None
        if engine is not None:
            # Quiet engines add nothing: the sections stay None, so an
            # armed-but-unbreached run's report is bit-identical to an
            # unarmed one (modulo the rollup, which exists either way).
            if engine.breached:
                health = engine.as_dict()
            if engine.flight_dumps:
                flight = dict(engine.flight_dumps)
        return cls(
            name=name,
            env=env,
            params=params,
            metrics=metrics,
            kind_counts=kind_counts,
            spans=spans,
            series=recorder.as_dict() if recorder is not None else None,
            nodes=nodes,
            health=health,
            flight=flight,
            created_at=world.env.now if created_at is None else created_at,
        )

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "name": self.name,
            "created_at": self.created_at,
            "env": self.env,
            "params": self.params,
            "metrics": self.metrics,
            "kind_counts": self.kind_counts,
            "spans": self.spans,
            "series": self.series,
            "nodes": self.nodes,
            "health": self.health,
            "flight": self.flight,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        return cls(
            name=str(data.get("name", "")),
            env=dict(data.get("env") or {}),  # type: ignore[arg-type]
            params=dict(data.get("params") or {}),  # type: ignore[arg-type]
            metrics=dict(data.get("metrics") or {}),  # type: ignore[arg-type]
            kind_counts=dict(data.get("kind_counts") or {}),  # type: ignore[arg-type]
            spans=list(data.get("spans") or []),  # type: ignore[arg-type]
            series=data.get("series"),  # type: ignore[arg-type]
            nodes=data.get("nodes"),  # type: ignore[arg-type]
            health=data.get("health"),  # type: ignore[arg-type]
            flight=data.get("flight"),  # type: ignore[arg-type]
            created_at=float(data.get("created_at", 0.0)),  # type: ignore[arg-type]
            schema=int(data.get("schema", SCHEMA_VERSION)),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    @staticmethod
    def validate(data: object) -> Dict[str, object]:
        """Check that ``data`` is a readable report document.

        Returns the dict on success; raises :class:`ReportSchemaError`
        with a one-line human explanation otherwise (the CLI turns this
        into a clean non-zero exit instead of a traceback).
        """
        if not isinstance(data, dict):
            raise ReportSchemaError(
                f"expected a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if not isinstance(schema, int) or isinstance(schema, bool):
            raise ReportSchemaError(
                "missing or non-integer 'schema' field — not a run report"
            )
        if schema > SCHEMA_VERSION:
            raise ReportSchemaError(
                f"report schema v{schema} is newer than this code "
                f"(supports up to v{SCHEMA_VERSION}) — upgrade repro"
            )
        metrics = data.get("metrics")
        if metrics is not None and not isinstance(metrics, dict):
            raise ReportSchemaError("'metrics' must be an object")
        spans = data.get("spans")
        if spans is not None:
            if not isinstance(spans, list):
                raise ReportSchemaError("'spans' must be a list or null")
            for index, span in enumerate(spans):
                if not isinstance(span, dict):
                    raise ReportSchemaError(
                        f"'spans[{index}]' must be an object"
                    )
                # The keys Span.from_dict indexes rather than defaults.
                required = ("trace_id", "span_id", "name", "source", "start")
                missing = [key for key in required if key not in span]
                if missing:
                    raise ReportSchemaError(
                        f"'spans[{index}]' lacks {', '.join(missing)}"
                    )
        for key in ("series", "nodes", "health", "flight"):
            section = data.get(key)
            if section is not None and not isinstance(section, dict):
                raise ReportSchemaError(f"'{key}' must be an object or null")
        health = data.get("health")
        if health is not None:
            events = health.get("events")
            if not isinstance(events, list):
                raise ReportSchemaError("'health.events' must be a list")
            for index, event in enumerate(events):
                if not isinstance(event, dict) or not all(
                    isinstance(event.get(key), kind)
                    for key, kind in _HEALTH_EVENT_FIELDS.items()
                ):
                    raise ReportSchemaError(
                        f"'health.events[{index}]' must carry "
                        f"{', '.join(_HEALTH_EVENT_FIELDS)}"
                    )
            verdicts = health.get("verdicts") or {}
            if not (
                isinstance(health.get("slos") or [], list)
                and isinstance(verdicts, dict)
                and all(isinstance(nodes, dict) for nodes in verdicts.values())
            ):
                raise ReportSchemaError(
                    "'health.slos' must be a list and 'health.verdicts' "
                    "an object of objects"
                )
        flight = data.get("flight")
        if flight is not None:
            for node, dump in flight.items():
                if not isinstance(dump, dict):
                    raise ReportSchemaError(f"'flight.{node}' must be an object")
                for key in ("events", "faults"):
                    if not isinstance(dump.get(key, []), list):
                        raise ReportSchemaError(
                            f"'flight.{node}.{key}' must be a list"
                        )
        return data

    @classmethod
    def load_checked(cls, path: str) -> "RunReport":
        """Load ``path``, raising :class:`ReportSchemaError` on any
        unreadable or schema-mismatched document."""
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as error:
            raise ReportSchemaError(f"cannot read {path}: {error}")
        except json.JSONDecodeError as error:
            raise ReportSchemaError(f"{path} is not valid JSON: {error}")
        data = cls.validate(data)
        try:
            return cls.from_dict(data)
        except (TypeError, ValueError) as error:
            raise ReportSchemaError(f"{path} is not a run report: {error}")

    def write(self, path: str) -> str:
        """Write the report atomically (temp file + ``os.replace``), so
        a process killed mid-write never leaves a truncated document."""
        return atomic_write_text(path, self.to_json() + "\n")

    # -- inspection ----------------------------------------------------------

    def span_trees(self) -> List[SpanTree]:
        return build_trees([Span.from_dict(data) for data in self.spans])

    def render(self, top: int = 20) -> str:
        """The report as human-readable text (tables + span trees)."""
        parts = [
            f"run report — {self.name}  (schema v{self.schema})",
            "  "
            + "  ".join(
                f"{key}={value}" for key, value in sorted(self.env.items())
            ),
        ]
        if self.params:
            parts.append(
                "  params: "
                + ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(self.params.items())
                )
            )
        metric_rows = [
            [name, value] for name, value in sorted(self.metrics.items())
        ]
        parts.append(
            render_table(
                f"metrics ({len(metric_rows)})", ["metric", "value"],
                metric_rows,
            )
        )
        if self.kind_counts:
            count_rows = sorted(
                self.kind_counts.items(), key=lambda item: -item[1]
            )[:top]
            parts.append(
                render_table(
                    "trace kinds (top)", ["kind", "count"],
                    [[kind, count] for kind, count in count_rows],
                )
            )
        if self.series and self.series.get("series"):
            table = self.series["series"]
            series_rows = []
            for series_name in sorted(table)[:top]:
                values = table[series_name].get("values", [])
                last = values[-1] if values else 0.0
                series_rows.append([series_name, len(values), last])
            parts.append(
                render_table(
                    f"time series (cadence {self.series.get('cadence')}s, "
                    f"{self.series.get('samples')} sweeps)",
                    ["series", "points", "last"],
                    series_rows,
                )
            )
        if self.health or self.flight:
            parts.append(
                render_health(
                    self.name, self.health or {}, self.flight, top=top
                )
            )
        trees = self.span_trees()
        if trees:
            complete = sum(1 for tree in trees if tree.complete())
            parts.append(
                f"spans: {len(self.spans)} in {len(trees)} trees "
                f"({complete} complete); largest tree:"
            )
            largest = max(trees, key=lambda tree: tree.size)
            parts.append(largest.render())
        return "\n\n".join(parts)
