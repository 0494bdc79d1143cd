"""Cross-run report diffing: the longitudinal half of observability.

A single :class:`~repro.obs.report.RunReport` says what one run did;
this module says what *changed* between two — and whether the change
is an improvement or a regression.  That needs a notion of direction:
``net.delivery_latency.p99`` going up is bad, ``speedup`` going up is
good, ``world.nodes`` going anywhere is neither.  The
:data:`DEFAULT_DIRECTIONS` registry encodes that as ordered glob
patterns over metric names (first match wins; unmatched names are
*neutral* — reported, never gating).

``diff_reports`` compares the ``metrics`` sections of two report
dicts under a relative threshold and produces a :class:`ReportDiff`
whose verdict is machine-readable (``to_dict``) and human-readable
(``render``).  ``python -m repro compare A B --fail-on regress`` wraps
it for CI: exit 1 when any directional metric regresses past the
threshold.  ``benchmarks/_common.gate_against_baseline`` wraps it for
the benchmark suite, replacing per-script hand-rolled floor asserts
with checked-in baseline reports.
"""

from __future__ import annotations

import json
import math
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .report import RunReport

#: Default relative-change threshold below which a metric counts as
#: unchanged (5%); gates that encode hard floors use 0.0.
DEFAULT_THRESHOLD = 0.05

#: Ordered (glob pattern, direction) rules; first match wins.
#: ``None`` means neutral: the metric is diffed and displayed but can
#: never regress.  Neutral carve-outs come first so e.g. a histogram's
#: ``.count`` is not dragged into its parent's direction.
DEFAULT_DIRECTIONS: Tuple[Tuple[str, Optional[str]], ...] = (
    # Volume/shape carve-outs: more calls is not better or worse.
    ("*.count", None),
    ("world.now", None),
    ("*nodes*", None),
    ("*epoch*", None),
    ("*rounds*", None),
    ("*sweeps*", None),
    ("*grid_cell*", None),
    ("*invalidations*", None),
    ("*cache_size*", None),
    # Injected-fault tallies describe the scenario, not the system
    # under test (and must shadow e.g. the *latency* rule for
    # faults.extra_latency); ditto the checksum discards they force.
    ("faults.*", None),
    ("*corrupt_discarded*", None),
    # Fleet health (repro.obs.health): breach tallies should shrink;
    # per-node labeled series and the label-cardinality bookkeeping
    # are scenario shape.  The family precedes the generic rules so a
    # labeled ``health.breaches{node="x"}`` never matches e.g.
    # ``*reach*``-style patterns added later.
    ("health.breaches*", "lower"),
    ("health.critical_breaches*", "lower"),
    ("health.*", None),
    ("obs.labels.*", None),
    # Hostile-guest chaos (repro.faults.hostile): terminations are the
    # containment working, escapes are the one figure that must never
    # grow; launch counts and metered attack cost are scenario shape.
    # The security.* provider families describe how much guest
    # activity the workload ran, not its quality — except violations
    # and errors on a *fixed* scenario, which stay neutral too because
    # hostile plans terminate guests *by* violation.
    ("hostile.terminated*", "higher"),
    ("hostile.escapes*", "lower"),
    ("hostile.*", None),
    ("security.sandbox_violations*", None),
    ("security.sandbox_runs*", None),
    ("security.sandbox_errors*", None),
    ("security.guest_*", None),
    # Trace analytics (repro.obs.trace): the critical path and the
    # shares of time lost to queueing/transit stalls/retries should
    # shrink; the raw span/tree/invocation tallies are scenario shape.
    # The family must precede the generic rules — ``*delivered*`` would
    # otherwise read trace.duplicate_deliveries as "higher is better".
    ("trace.orphans", "lower"),
    ("trace.duplicate_deliveries", None),
    ("trace.critical_path.*", "lower"),
    ("trace.queue_share", "lower"),
    ("trace.transit_share", "lower"),
    ("trace.retry_share", "lower"),
    ("trace.other_share", "lower"),
    ("trace.*_seconds", "lower"),
    ("trace.*", None),
    # Run-matrix orchestrator (repro.runner): job failures and strict
    # replay mismatches must never grow, completions must never drop;
    # the job tally and summed sim-time are matrix shape.  The family
    # precedes the generic rules so runner.completed_jobs gets its
    # direction here rather than from ``*completed*``.
    ("runner.failures", "lower"),
    ("runner.replay_mismatches", "lower"),
    ("runner.completed_jobs", "higher"),
    ("runner.job_ok*", "higher"),
    ("runner.*", None),
    # Routing-fabric counters (repro.net.routing): tree reuse should
    # grow; flushes and planner-ladder tallies are workload shape.
    ("routing.tree_hits", "higher"),
    ("routing.tree_misses", "lower"),
    ("routing.flushes", None),
    ("routing.hier.hits", "higher"),
    ("routing.hier.misses", "lower"),
    ("routing.hier.*", None),
    ("*revalidations*", None),
    # Higher is better: useful work and cache effectiveness.
    ("*speedup*", "higher"),
    ("*completion_rate*", "higher"),
    ("*completed*", "higher"),
    ("*hits*", "higher"),
    ("*served*", "higher"),
    ("*delivered*", "higher"),
    ("*reach*", "higher"),
    ("*coverage*", "higher"),
    ("*throughput*", "higher"),
    ("*availability*", "higher"),
    # Lower is better: time, loss, failures, and spend.
    ("*seconds*", "lower"),
    ("*latency*", "lower"),
    ("*_rtt*", "lower"),
    ("*misses*", "lower"),
    ("*lost*", "lower"),
    ("*failures*", "lower"),
    ("*timeouts*", "lower"),
    ("*rejections*", "lower"),
    ("*errors*", "lower"),
    ("*retries*", "lower"),
    ("*stale_replies*", "lower"),
    ("*failed*", "lower"),
    ("*money*", "lower"),
    ("*bytes*", "lower"),
    ("*retransmissions*", "lower"),
    ("*overhead*", "lower"),
    ("*ratio*", "lower"),
)

_VERDICT_ORDER = {"regressed": 0, "improved": 1, "changed": 2, "unchanged": 3}


def direction_of(
    name: str,
    overrides: Optional[Mapping[str, Optional[str]]] = None,
    rules: Sequence[Tuple[str, Optional[str]]] = DEFAULT_DIRECTIONS,
) -> Optional[str]:
    """``"higher"``, ``"lower"``, or ``None`` (neutral) for a metric.

    ``overrides`` maps exact metric names to a direction and beats the
    pattern rules — the hook for baselines/CLI flags to pin semantics
    the patterns get wrong.
    """
    if overrides and name in overrides:
        return overrides[name]
    for pattern, direction in rules:
        if fnmatchcase(name, pattern):
            return direction
    return None


class MetricDelta:
    """One metric's change between a base and a new run."""

    def __init__(
        self,
        name: str,
        base: float,
        new: float,
        direction: Optional[str],
        threshold: float,
    ) -> None:
        self.name = name
        self.base = base
        self.new = new
        self.direction = direction
        self.delta = new - base
        if base != 0.0:
            self.relative = (new - base) / abs(base)
        elif new == 0.0:
            self.relative = 0.0
        else:
            self.relative = math.copysign(math.inf, new - base)
        if abs(self.relative) <= threshold:
            self.verdict = "unchanged"
        elif direction is None:
            self.verdict = "changed"
        elif (direction == "lower") == (self.delta > 0):
            self.verdict = "regressed"
        else:
            self.verdict = "improved"

    def to_dict(self) -> Dict[str, object]:
        relative = self.relative
        return {
            "name": self.name,
            "base": self.base,
            "new": self.new,
            "delta": self.delta,
            # JSON has no Infinity; "new appeared from zero" serialises
            # as null and the verdict field carries the judgement.
            "relative": relative if math.isfinite(relative) else None,
            "direction": self.direction,
            "verdict": self.verdict,
        }

    def __repr__(self) -> str:
        return (
            f"<MetricDelta {self.name} {self.base:g}->{self.new:g} "
            f"{self.verdict}>"
        )


class ReportDiff:
    """The full comparison of two report documents."""

    def __init__(
        self,
        base_name: str,
        new_name: str,
        threshold: float,
        deltas: List[MetricDelta],
        added: Dict[str, float],
        removed: Dict[str, float],
        notes: List[str],
    ) -> None:
        self.base_name = base_name
        self.new_name = new_name
        self.threshold = threshold
        self.deltas = deltas
        self.added = added
        self.removed = removed
        self.notes = notes

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "regressed"]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "improved"]

    @property
    def verdict(self) -> str:
        return "regression" if self.regressions else "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "base": self.base_name,
            "new": self.new_name,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "regressed": [d.name for d in self.regressions],
            "improved": [d.name for d in self.improvements],
            "added": dict(sorted(self.added.items())),
            "removed": dict(sorted(self.removed.items())),
            "notes": list(self.notes),
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, all_metrics: bool = False) -> str:
        """Human-readable comparison (regressions first).

        By default unchanged metrics are elided; ``all_metrics=True``
        prints every delta.
        """
        from ..analysis.tables import render_table

        shown = [
            delta
            for delta in self.deltas
            if all_metrics or delta.verdict != "unchanged"
        ]
        shown.sort(key=lambda d: (_VERDICT_ORDER[d.verdict], d.name))
        rows = []
        for delta in shown:
            relative = delta.relative
            rel_text = (
                f"{relative * 100:+.1f}%" if math.isfinite(relative)
                else "new!=0"
            )
            rows.append(
                [
                    delta.name,
                    f"{delta.base:g}",
                    f"{delta.new:g}",
                    rel_text,
                    delta.direction or "-",
                    delta.verdict,
                ]
            )
        unchanged = len(self.deltas) - len(shown)
        parts = [
            f"compare — base: {self.base_name}  vs  new: {self.new_name}  "
            f"(threshold {self.threshold * 100:g}%)",
            render_table(
                f"metric deltas ({len(shown)} shown, {unchanged} unchanged)",
                ["metric", "base", "new", "rel", "direction", "verdict"],
                rows,
            ),
        ]
        if self.added:
            parts.append(
                "only in new: "
                + ", ".join(f"{k}={v:g}" for k, v in sorted(self.added.items()))
            )
        if self.removed:
            parts.append(
                "only in base: "
                + ", ".join(
                    f"{k}={v:g}" for k, v in sorted(self.removed.items())
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        parts.append(
            f"verdict: {self.verdict.upper()}"
            + (
                f" — {len(self.regressions)} metric(s) regressed past "
                f"{self.threshold * 100:g}%"
                if self.regressions
                else ""
            )
        )
        return "\n\n".join(parts)


def _numeric_metrics(document: Mapping[str, object]) -> Dict[str, float]:
    """The comparable scalars of a report dict.

    Accepts a full RunReport document (uses its ``metrics`` section) or
    a bare ``{name: value}`` mapping, so hand-written baselines and
    trajectory entries diff the same way as full reports.
    """
    section = document.get("metrics", document)
    if not isinstance(section, Mapping):
        return {}
    return {
        str(name): float(value)
        for name, value in section.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def diff_reports(
    base: Mapping[str, object],
    new: Mapping[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    overrides: Optional[Mapping[str, Optional[str]]] = None,
) -> ReportDiff:
    """Structurally compare two report documents' metrics."""
    base_metrics = _numeric_metrics(base)
    new_metrics = _numeric_metrics(new)
    deltas = [
        MetricDelta(
            name,
            base_metrics[name],
            new_metrics[name],
            direction_of(name, overrides),
            threshold,
        )
        for name in sorted(set(base_metrics) & set(new_metrics))
    ]
    added = {
        name: new_metrics[name] for name in new_metrics if name not in base_metrics
    }
    removed = {
        name: base_metrics[name] for name in base_metrics if name not in new_metrics
    }
    notes = []
    base_params = base.get("params") or {}
    new_params = new.get("params") or {}
    if base_params != new_params:
        notes.append(
            f"params differ (base {base_params!r} vs new {new_params!r}) — "
            "runs may not be directly comparable"
        )
    base_schema = base.get("schema")
    new_schema = new.get("schema")
    if base_schema != new_schema and base_schema is not None:
        notes.append(f"schema differs (v{base_schema} vs v{new_schema})")
    return ReportDiff(
        base_name=str(base.get("name", "base")),
        new_name=str(new.get("name", "new")),
        threshold=threshold,
        deltas=deltas,
        added=added,
        removed=removed,
        notes=notes,
    )


def diff_report_files(
    base_path: str,
    new_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    overrides: Optional[Mapping[str, Optional[str]]] = None,
) -> ReportDiff:
    """Load two report JSON files (validated) and diff them.

    Raises :class:`~repro.obs.report.ReportSchemaError` on unreadable
    or schema-mismatched input.
    """
    base = RunReport.load_checked(base_path).to_dict()
    new = RunReport.load_checked(new_path).to_dict()
    return diff_reports(base, new, threshold=threshold, overrides=overrides)
