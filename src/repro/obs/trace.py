"""Causal trace analytics: span DAGs, hop attribution, critical paths.

The spans a :class:`~repro.obs.report.RunReport` captures are raw
material — this module turns them into answers.  Given a report's
flat span list it reconstructs the causal DAG (parent links plus the
``msg_id`` correlation attributes the transport and hosts stamp),
then attributes every simulated second of each invocation to one of
five buckets:

* **queue**   — waiting behind the transfers already booked on the
  sender's radio (``net.transmit`` start to its ``t_air`` stamp);
* **transit** — airtime plus propagation (``t_air`` to span end) plus
  any delivery stall between the transmit span closing and the
  receiver-side ``t_deliver`` stamp (fault-injected delays land here,
  not in dead air);
* **service** — remote handler execution (``host.handle`` spans);
* **retry**   — every backoff sleep (``invoke.backoff`` spans, opened
  by :func:`repro.core.invocation.retry_with_backoff` for request and
  operation retries and for agent hop and home-return retries) and
  ARQ retransmission gaps between attempts of the same message;
* **other**   — whatever remains of the invocation's wall interval
  (request/timeout waits not covered above).

Attribution is a priority sweep over the invocation root's interval —
overlapping concurrent activity is counted once, so the five buckets
always sum to the invocation's total duration.  Everything is
deterministic sim-time arithmetic: two same-seed runs produce
bit-identical analyses (span *ids* differ across runs in one process,
but no id leaks into the metrics).

Orphan spans (parent evicted from the ring or still active at capture)
become roots of partial trees and are counted, never fatal; duplicate
deliveries (the fault injector's ``duplicate`` window) are detected by
repeated ``t_deliver`` stamps for one message id and never double-count
an edge or a bucket.

The CLI front end is ``python -m repro trace`` (``summary``,
``critical-path``, ``slowest``, ``export --format chrome``); the
aggregate ``trace.*`` metrics feed :meth:`RunReport.capture
<repro.obs.report.RunReport.capture>` and the ``repro.obs.diff``
direction registry, so a regression in *where* time goes gates like a
regression in *how much*.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .spans import STATUS_OK, Span, SpanTree, build_trees

#: The five attribution buckets, in reporting order.
QUEUE = "queue"
TRANSIT = "transit"
SERVICE = "service"
RETRY = "retry"
OTHER = "other"
BUCKETS: Tuple[str, ...] = (QUEUE, TRANSIT, SERVICE, RETRY, OTHER)

#: When concurrent intervals overlap, one instant is attributed to the
#: first matching bucket in this order (retry stalls and queueing are
#: the diagnostic signals; service is what overlapping transmits of the
#: reply would otherwise hide).
_PRIORITY: Tuple[str, ...] = (RETRY, QUEUE, TRANSIT, SERVICE)

#: Root operation-span names that define one invocation, mapped to the
#: paradigm kind whose ``paradigm.<kind>.seconds`` histogram they feed.
INVOCATION_OPS: Dict[str, str] = {
    "cs.call": "cs",
    "rev.evaluate": "rev",
    "cod.fetch": "cod",
    "cod.invoke": "cod",
    "ma.invoke": "ma",
    "local.run": "local",
}

#: Relative tolerance for reconciliation checks: the arithmetic is all
#: sums of sim-time floats, so only accumulation-order noise is allowed.
RECONCILE_TOLERANCE = 1e-6


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class InvocationBreakdown:
    """One invocation's wall time, fully attributed."""

    name: str
    kind: str
    source: str
    trace_id: int
    start: float
    end: float
    status: str
    total: float
    buckets: Dict[str, float]
    span_count: int
    critical_path: List[Span] = field(repr=False, default_factory=list)

    @property
    def queue(self) -> float:
        return self.buckets[QUEUE]

    @property
    def transit(self) -> float:
        return self.buckets[TRANSIT]

    @property
    def service(self) -> float:
        return self.buckets[SERVICE]

    @property
    def retry(self) -> float:
        return self.buckets[RETRY]

    @property
    def other(self) -> float:
        return self.buckets[OTHER]

    def reconciliation_error(self) -> float:
        """|sum of buckets - total| — pure float noise when correct."""
        return abs(sum(self.buckets.values()) - self.total)

    def reconciles(self, tolerance: float = RECONCILE_TOLERANCE) -> bool:
        return self.reconciliation_error() <= tolerance * max(1.0, self.total)


def critical_path(tree: SpanTree) -> List[Span]:
    """The chain of spans that determines when the tree finishes.

    Walk from the root, at each step following the child that finishes
    last (ties broken by span id for determinism); unfinished children
    are skipped, so partial trees degrade to the finished chain.
    """
    path: List[Span] = []
    node = tree
    while True:
        path.append(node.span)
        finished = [child for child in node.children if child.span.finished]
        if not finished:
            return path
        node = max(finished, key=lambda c: (c.span.end, c.span.span_id))


def _attribute(
    start: float, end: float, intervals: List[Tuple[float, float, str]]
) -> Dict[str, float]:
    """Priority-sweep ``intervals`` over ``[start, end]`` into buckets.

    Every elementary segment of the window is attributed to exactly one
    bucket (the highest-priority label covering it, or ``other``), so
    the buckets partition the window.
    """
    buckets = {bucket: 0.0 for bucket in BUCKETS}
    if end <= start:
        return buckets
    clipped = [
        (max(left, start), min(right, end), label)
        for left, right, label in intervals
        if min(right, end) > max(left, start)
    ]
    points = sorted(
        {start, end}
        | {left for left, _right, _label in clipped}
        | {right for _left, right, _label in clipped}
    )
    for left, right in zip(points, points[1:]):
        covering = {
            label
            for ileft, iright, label in clipped
            if ileft <= left and iright >= right
        }
        for label in _PRIORITY:
            if label in covering:
                buckets[label] += right - left
                break
        else:
            buckets[OTHER] += right - left
    return buckets


class TraceAnalysis:
    """The reconstructed span DAG of one run, with hop attribution."""

    def __init__(self, spans: Sequence[Span]) -> None:
        finished = [span for span in spans if span.finished]
        self.spans = finished
        self.unfinished = len(spans) - len(finished)
        known = {span.span_id for span in finished}
        self.orphans = sum(
            1
            for span in finished
            if span.parent_id is not None and span.parent_id not in known
        )
        self.trees: List[SpanTree] = build_trees(finished)
        # Message correlation: transmits and receiver delivery stamps,
        # keyed by the ``msg_id`` the transport/hosts stamp per hop.
        self._transmits: Dict[int, List[Span]] = {}
        self._deliveries: Dict[int, List[float]] = {}
        for span in finished:
            msg_id = span.attributes.get("msg_id")
            if msg_id is None:
                continue
            msg_id = int(msg_id)  # type: ignore[arg-type]
            if span.name == "net.transmit":
                self._transmits.setdefault(msg_id, []).append(span)
            elif span.name in ("host.handle", "host.deliver"):
                stamp = span.attributes.get("t_deliver")
                if stamp:
                    self._deliveries.setdefault(msg_id, []).append(
                        float(stamp)  # type: ignore[arg-type]
                    )
        for group in self._transmits.values():
            group.sort(key=lambda span: (span.start, span.span_id))
        for stamps in self._deliveries.values():
            stamps.sort()
        self.duplicate_deliveries = sum(
            len(stamps) - 1 for stamps in self._deliveries.values()
        )
        self.invocations: List[InvocationBreakdown] = []
        self.background: List[SpanTree] = []
        for tree in self.trees:
            root = tree.span
            if root.parent_id is None and root.name in INVOCATION_OPS:
                self.invocations.append(self._breakdown(tree))
            else:
                self.background.append(tree)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_spans(
        cls, span_dicts: Iterable[Mapping[str, object]]
    ) -> "TraceAnalysis":
        """Build from the flat dict spans a report document carries."""
        return cls([Span.from_dict(dict(data)) for data in span_dicts])

    @classmethod
    def from_report(cls, report: object) -> "TraceAnalysis":
        """Build from a :class:`RunReport` instance or report dict."""
        if hasattr(report, "spans"):
            spans = report.spans  # type: ignore[union-attr]
        else:
            spans = report.get("spans") or []  # type: ignore[union-attr]
        return cls.from_spans(spans)

    # -- per-invocation attribution ------------------------------------------

    def _delivery_after(self, msg_id: int, when: float) -> Optional[float]:
        """The first receiver delivery stamp at or after ``when``."""
        stamps = self._deliveries.get(msg_id)
        if not stamps:
            return None
        index = bisect_left(stamps, when)
        return stamps[index] if index < len(stamps) else None

    def _breakdown(self, tree: SpanTree) -> InvocationBreakdown:
        root = tree.span
        intervals: List[Tuple[float, float, str]] = []
        transmit_groups: Dict[int, List[Span]] = {}
        span_count = 0
        for _depth, span in tree.walk():
            span_count += 1
            if not span.finished:
                continue
            if span.name == "net.transmit":
                attrs = span.attributes
                t_air = float(attrs.get("t_air", span.start))  # type: ignore[arg-type]
                intervals.append((span.start, t_air, QUEUE))
                intervals.append((t_air, span.end, TRANSIT))  # type: ignore[arg-type]
                msg_id = attrs.get("msg_id")
                if msg_id is not None:
                    msg_id = int(msg_id)  # type: ignore[arg-type]
                    transmit_groups.setdefault(msg_id, []).append(span)
                    delivered = self._delivery_after(msg_id, span.end)
                    if delivered is not None and delivered > span.end:
                        # The copy left the air but reached the inbox
                        # later: an injected (or relayed) delivery
                        # stall, attributed to transit.
                        intervals.append((span.end, delivered, TRANSIT))
            elif span.name == "net.broadcast":
                intervals.append((span.start, span.end, TRANSIT))  # type: ignore[arg-type]
            elif span.name == "invoke.backoff":
                intervals.append((span.start, span.end, RETRY))  # type: ignore[arg-type]
            elif span.name == "host.handle":
                intervals.append((span.start, span.end, SERVICE))  # type: ignore[arg-type]
        # ARQ retransmissions: the wait between one attempt's end and
        # the next attempt's start for the same message id is a retry
        # stall (link-layer), same bucket as pipeline backoff.
        for group in transmit_groups.values():
            for previous, current in zip(group, group[1:]):
                if current.start > previous.end:  # type: ignore[operator]
                    intervals.append((previous.end, current.start, RETRY))  # type: ignore[arg-type]
        buckets = _attribute(root.start, root.end, intervals)  # type: ignore[arg-type]
        return InvocationBreakdown(
            name=root.name,
            kind=INVOCATION_OPS[root.name],
            source=root.source,
            trace_id=root.trace_id,
            start=root.start,
            end=root.end,  # type: ignore[arg-type]
            status=root.status,
            total=root.duration,
            buckets=buckets,
            span_count=span_count,
            critical_path=critical_path(tree),
        )

    # -- aggregates ----------------------------------------------------------

    def bucket_totals(self) -> Dict[str, float]:
        totals = {bucket: 0.0 for bucket in BUCKETS}
        for invocation in self.invocations:
            for bucket in BUCKETS:
                totals[bucket] += invocation.buckets[bucket]
        return totals

    def metrics(self) -> Dict[str, float]:
        """The gateable ``trace.*`` metric family (id-free, so two
        same-seed runs produce bit-identical values)."""
        durations = [invocation.total for invocation in self.invocations]
        totals = self.bucket_totals()
        grand = sum(durations)
        metrics: Dict[str, float] = {
            "trace.spans": float(len(self.spans)),
            "trace.trees": float(len(self.trees)),
            "trace.invocations": float(len(self.invocations)),
            "trace.orphans": float(self.orphans),
            "trace.unfinished": float(self.unfinished),
            "trace.duplicate_deliveries": float(self.duplicate_deliveries),
            "trace.critical_path.p50": percentile(durations, 0.50),
            "trace.critical_path.p99": percentile(durations, 0.99),
            "trace.critical_path.max": max(durations) if durations else 0.0,
        }
        for bucket in BUCKETS:
            metrics[f"trace.{bucket}_seconds"] = totals[bucket]
            metrics[f"trace.{bucket}_share"] = (
                totals[bucket] / grand if grand else 0.0
            )
        return metrics

    def slowest(self, count: int = 10) -> List[InvocationBreakdown]:
        """The ``count`` slowest invocations (ties broken by start)."""
        ranked = sorted(
            self.invocations,
            key=lambda inv: (-inv.total, inv.start, inv.trace_id),
        )
        return ranked[: max(0, count)]

    # -- verification --------------------------------------------------------

    def problems(
        self, metrics: Optional[Mapping[str, float]] = None
    ) -> List[str]:
        """Internal-consistency failures (empty list means healthy).

        Checks that every invocation's buckets sum back to its wall
        duration, and — when a report's ``metrics`` section is given —
        that per-paradigm invocation totals reconcile with the
        ``paradigm.<kind>.seconds`` histograms the pipeline recorded
        independently.
        """
        found: List[str] = []
        for invocation in self.invocations:
            if not invocation.reconciles():
                found.append(
                    f"{invocation.name} trace {invocation.trace_id}: buckets "
                    f"sum to {sum(invocation.buckets.values()):.9f}s but the "
                    f"invocation took {invocation.total:.9f}s"
                )
        if self.spans and not self.trees:
            found.append("no span could be placed in any tree")
        if metrics:
            # The pipeline observes ``paradigm.<kind>.seconds`` only on
            # success — failed invocations have root spans but no
            # histogram sample, so reconcile against the ok subset.
            by_kind: Dict[str, List[InvocationBreakdown]] = {}
            for invocation in self.invocations:
                if invocation.status == STATUS_OK:
                    by_kind.setdefault(invocation.kind, []).append(invocation)
            for kind, invocations in sorted(by_kind.items()):
                count_key = f"paradigm.{kind}.seconds.count"
                expected_count = metrics.get(count_key)
                if expected_count is None:
                    continue
                if int(expected_count) != len(invocations):
                    found.append(
                        f"paradigm.{kind}: {len(invocations)} invocation "
                        f"root span(s) vs {int(expected_count)} histogram "
                        "observations (span ring evicted, or spans were "
                        "enabled mid-run)"
                    )
                    continue
                expected = metrics.get(f"paradigm.{kind}.seconds.sum")
                if expected is None:
                    mean = metrics.get(f"paradigm.{kind}.seconds.mean", 0.0)
                    expected = mean * expected_count
                got = sum(invocation.total for invocation in invocations)
                if abs(got - expected) > RECONCILE_TOLERANCE * max(
                    1.0, expected
                ):
                    found.append(
                        f"paradigm.{kind}: invocation spans sum to "
                        f"{got:.9f}s but paradigm.{kind}.seconds recorded "
                        f"{expected:.9f}s"
                    )
        return found

    # -- rendering -----------------------------------------------------------

    def render_summary(self) -> str:
        """Human-readable per-kind breakdown tables."""
        from ..analysis.tables import render_table

        parts = [
            f"trace analysis — {len(self.spans)} spans in "
            f"{len(self.trees)} trees; {len(self.invocations)} "
            f"invocation(s), {len(self.background)} background tree(s), "
            f"{self.orphans} orphan(s), "
            f"{self.duplicate_deliveries} duplicate deliveries"
        ]
        by_kind: Dict[str, List[InvocationBreakdown]] = {}
        for invocation in self.invocations:
            by_kind.setdefault(invocation.kind, []).append(invocation)
        rows = []
        for kind, invocations in sorted(by_kind.items()):
            total = sum(inv.total for inv in invocations)
            rows.append(
                [
                    kind,
                    len(invocations),
                    f"{total:.6f}",
                    *(
                        f"{sum(inv.buckets[bucket] for inv in invocations):.6f}"
                        for bucket in BUCKETS
                    ),
                ]
            )
        parts.append(
            render_table(
                "per-paradigm latency attribution (seconds)",
                ["kind", "n", "total", *BUCKETS],
                rows,
            )
        )
        metric_rows = [
            [name, f"{value:g}"]
            for name, value in sorted(self.metrics().items())
        ]
        parts.append(
            render_table("trace metrics", ["metric", "value"], metric_rows)
        )
        return "\n\n".join(parts)

    def render_critical_path(self, top: int = 3) -> str:
        """The critical path of the ``top`` slowest invocations."""
        if not self.invocations:
            return "no invocations to profile (report has no operation spans)"
        parts = []
        for invocation in self.slowest(top):
            parts.append(
                f"{invocation.name} [{invocation.source}] "
                f"{invocation.total * 1000:.3f}ms total — "
                f"queue {invocation.queue * 1000:.3f} / transit "
                f"{invocation.transit * 1000:.3f} / service "
                f"{invocation.service * 1000:.3f} / retry "
                f"{invocation.retry * 1000:.3f} / other "
                f"{invocation.other * 1000:.3f}"
            )
            for depth, span in enumerate(invocation.critical_path):
                indent = "  " * (depth + 1)
                parts.append(
                    f"{indent}{span.name} [{span.source}] "
                    f"{span.start:.6f}→{span.end:.6f} "
                    f"({span.duration * 1000:.3f}ms)"
                )
        return "\n".join(parts)

    def render_slowest(self, count: int = 10) -> str:
        from ..analysis.tables import render_table

        rows = [
            [
                invocation.name,
                invocation.source,
                invocation.status,
                f"{invocation.total * 1000:.3f}",
                *(
                    f"{invocation.buckets[bucket] * 1000:.3f}"
                    for bucket in BUCKETS
                ),
            ]
            for invocation in self.slowest(count)
        ]
        return render_table(
            f"slowest invocations (ms, top {len(rows)})",
            ["op", "host", "status", "total", *BUCKETS],
            rows,
        )

    # -- export --------------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        """A chrome://tracing / Perfetto-loadable trace document.

        One "process" per span source (host id), one "thread" per trace
        id; spans become complete (``ph: "X"``) events with sim-time
        microsecond timestamps.  Ordering is deterministic.
        """
        sources = sorted({span.source for span in self.spans})
        pids = {source: index + 1 for index, source in enumerate(sources)}
        events: List[Dict[str, object]] = []
        for source in sources:
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[source],
                    "tid": 0,
                    "args": {"name": source},
                }
            )
        for span in sorted(
            self.spans, key=lambda span: (span.start, span.span_id)
        ):
            args: Dict[str, object] = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
            }
            args.update(span.attributes)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pids[span.source],
                    "tid": span.trace_id,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.trace",
                "spans": len(self.spans),
                "orphans": self.orphans,
            },
        }
