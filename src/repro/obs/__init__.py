"""Cross-cutting observability: spans, reports, series, traces, health.

The middleware's claims are *measured* claims, so measurement is a
first-class subsystem:

* :mod:`repro.obs.spans`     — causal span trees across hosts
  (:class:`Span`, :class:`SpanTracer`), propagated inside messages;
* :mod:`repro.obs.report`    — :class:`RunReport`, the versioned JSON
  document every benchmark writes to ``benchmarks/results/``;
* :mod:`repro.obs.timeseries`— :class:`TimeSeriesRecorder`, sim-time
  cadence sampling of the metrics registry into bounded series;
* :mod:`repro.obs.diff`      — cross-run report diffing with a
  higher/lower-is-better direction registry (``python -m repro
  compare``, the benchmark regression gate);
* :mod:`repro.obs.trace`     — causal trace analytics over a report's
  spans: DAG reconstruction, per-hop latency attribution, critical
  paths, and Chrome/Perfetto export (``python -m repro trace``);
* :mod:`repro.obs.health`    — in-run fleet health: per-node
  :class:`SloSpec` monitors evaluated on the sampling cadence
  (:class:`HealthEngine`) and a breach-triggered
  :class:`FlightRecorder` (``python -m repro health``).

See ``docs/OBSERVABILITY.md`` for the span model and the
``subsystem.metric`` naming scheme.  Wall-clock cost per layer is
measured outside the package, by ``benchmarks/e2e/run.py --trace 1``.
"""

from .diff import (
    DEFAULT_DIRECTIONS,
    MetricDelta,
    ReportDiff,
    diff_report_files,
    diff_reports,
    direction_of,
)
from .fileio import (
    append_jsonl,
    atomic_write_text,
    locked_append_line,
    read_jsonl,
    read_jsonl_if_exists,
)
from .health import (
    FlightRecorder,
    HealthEngine,
    LEVELS,
    SloSpec,
    worst_level,
)
from .wallclock import wall_time
from .report import ReportSchemaError, RunReport, SCHEMA_KEYS, SCHEMA_VERSION
from .timeseries import TimeSeriesRecorder
from .trace import (
    BUCKETS,
    INVOCATION_OPS,
    InvocationBreakdown,
    TraceAnalysis,
    critical_path,
)
from .spans import (
    NOOP_SPAN,
    STATUS_ERROR,
    STATUS_OK,
    Span,
    SpanTracer,
    SpanTree,
    build_trees,
)

__all__ = [
    "BUCKETS",
    "DEFAULT_DIRECTIONS",
    "FlightRecorder",
    "HealthEngine",
    "INVOCATION_OPS",
    "InvocationBreakdown",
    "LEVELS",
    "MetricDelta",
    "NOOP_SPAN",
    "SloSpec",
    "ReportDiff",
    "ReportSchemaError",
    "RunReport",
    "SCHEMA_KEYS",
    "SCHEMA_VERSION",
    "STATUS_ERROR",
    "STATUS_OK",
    "Span",
    "SpanTracer",
    "SpanTree",
    "TimeSeriesRecorder",
    "TraceAnalysis",
    "append_jsonl",
    "atomic_write_text",
    "build_trees",
    "critical_path",
    "diff_report_files",
    "diff_reports",
    "direction_of",
    "locked_append_line",
    "read_jsonl",
    "read_jsonl_if_exists",
    "wall_time",
    "worst_level",
]
