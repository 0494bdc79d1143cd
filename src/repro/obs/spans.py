"""Causal spans: follow one operation across hosts and the network.

A :class:`Span` is a named interval of simulated time with a parent,
forming trees that explain *why* something happened: one REV request
produces a tree ``rev.evaluate -> host.request -> net.transmit`` on the
client plus a remote ``host.handle`` branch on the server.  Span
context crosses the network inside :class:`~repro.net.message.Message`
objects (the ``trace_context`` field), so causality survives host
boundaries exactly like real distributed tracing headers do.

Spans are the stored trace.  Every finished span is also emitted into
the :class:`~repro.sim.tracing.TraceLog` (kind ``span``), so it is
counted and reaches an armed flight recorder.  Disabled tracers
hand out a shared no-op span and do no bookkeeping, keeping the
instrumented hot paths cheap.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..sim.tracing import TraceLog

#: Status a finished span may carry.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One named interval of simulated time within a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "source",
        "start",
        "end",
        "status",
        "attributes",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        source: str,
        start: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.source = source
        self.start = start
        self.end: Optional[float] = None
        self.status: str = STATUS_OK
        self.attributes: Dict[str, object] = attributes or {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0.0 while unfinished)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable flat representation."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(
            trace_id=int(data["trace_id"]),  # type: ignore[arg-type]
            span_id=int(data["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None if data.get("parent_id") is None
                else int(data["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(data["name"]),
            source=str(data["source"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            attributes=dict(data.get("attributes") or {}),  # type: ignore[arg-type]
        )
        if data.get("end") is not None:
            span.end = float(data["end"])  # type: ignore[arg-type]
        span.status = str(data.get("status", STATUS_OK))
        return span

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} #{self.span_id} trace={self.trace_id} "
            f"parent={self.parent_id} status={self.status}>"
        )


class _NoopSpan(Span):
    """The span handed out by a disabled tracer: accepts everything,
    records nothing.  Attribute writes land in a throwaway dict so the
    shared singleton cannot accumulate state."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(0, 0, None, "noop", "noop", 0.0)

    @property  # type: ignore[override]
    def attributes(self) -> Dict[str, object]:  # pragma: no cover - trivial
        return {}

    @attributes.setter
    def attributes(self, value: Dict[str, object]) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: Serialisable span context, as carried inside messages.
SpanContext = Dict[str, int]

#: What ``parent=`` accepts: a live span, a wire context, or nothing.
ParentLike = Union[Span, SpanContext, None]


class SpanTracer:
    """Creates, finishes, and stores spans against simulated time.

    ``now`` is a zero-argument callable returning the current simulated
    time (pass ``lambda: env.now``).  Finished spans live in a bounded
    ring, oldest evicted first; each is also emitted into ``trace`` as a
    ``span`` happening.
    """

    def __init__(
        self,
        now: Callable[[], float],
        trace: Optional[TraceLog] = None,
        enabled: bool = True,
        max_spans: int = 100_000,
    ) -> None:
        self.enabled = enabled
        self._now = now
        self._trace = trace
        self._finished: Deque[Span] = deque(maxlen=max_spans)
        self._active: Dict[int, Span] = {}
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: Spans ever started/finished (survives ring eviction).
        self.started_total = 0
        self.finished_total = 0

    # -- creation ------------------------------------------------------------

    def start(
        self,
        name: str,
        source: str,
        parent: ParentLike = None,
        **attributes: object,
    ) -> Span:
        """Open a span.  ``parent`` may be a :class:`Span`, a wire
        context dict (``{"trace": .., "span": ..}``), or ``None`` for a
        new root trace."""
        if not self.enabled:
            return NOOP_SPAN
        parent_id: Optional[int] = None
        trace_id: Optional[int] = None
        if isinstance(parent, Span):
            if parent is not NOOP_SPAN:
                parent_id = parent.span_id
                trace_id = parent.trace_id
        elif isinstance(parent, dict):
            parent_id = int(parent.get("span", 0)) or None
            trace_id = int(parent.get("trace", 0)) or None
        if trace_id is None:
            trace_id = next(self._trace_ids)
        span = Span(
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            name=name,
            source=source,
            start=self._now(),
            attributes=dict(attributes) if attributes else {},
        )
        self._active[span.span_id] = span
        self.started_total += 1
        return span

    def finish(
        self, span: Span, status: str = STATUS_OK, **attributes: object
    ) -> None:
        """Close ``span`` at the current simulated time."""
        if span is NOOP_SPAN or not isinstance(span, Span) or span.finished:
            return
        span.end = self._now()
        span.status = status
        if attributes:
            span.attributes.update(attributes)
        self._active.pop(span.span_id, None)
        self._finished.append(span)
        self.finished_total += 1
        if self._trace is not None:
            self._trace.emit(
                span.end,
                span.source,
                "span",
                name=span.name,
                span=span.span_id,
                parent=span.parent_id,
                trace=span.trace_id,
                duration=round(span.duration, 9),
                status=span.status,
            )

    def context(self, span: Span) -> Optional[SpanContext]:
        """The wire representation of ``span`` for message propagation
        (``None`` when tracing is off, so messages stay clean)."""
        if span is NOOP_SPAN or not self.enabled:
            return None
        return {"trace": span.trace_id, "span": span.span_id}

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._finished)

    def finished_spans(self) -> List[Span]:
        return list(self._finished)

    def active_spans(self) -> List[Span]:
        return list(self._active.values())

    def clear(self) -> None:
        self._finished.clear()
        self._active.clear()

    def trees(self) -> List["SpanTree"]:
        """Finished spans grouped into trees, roots sorted by start."""
        return build_trees(self.finished_spans())


class SpanTree:
    """One trace: a root span and its (recursively nested) children."""

    def __init__(self, span: Span) -> None:
        self.span = span
        self.children: List["SpanTree"] = []

    @property
    def size(self) -> int:
        return 1 + sum(child.size for child in self.children)

    def complete(self) -> bool:
        """True when every span in the tree has finished."""
        return self.span.finished and all(
            child.complete() for child in self.children
        )

    def walk(self) -> Iterator[Tuple[int, Span]]:
        """(depth, span) pairs in depth-first order."""
        stack: List[Tuple[int, "SpanTree"]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node.span
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def find(self, name: str) -> List[Span]:
        """Every span in the tree with the given name."""
        return [span for _depth, span in self.walk() if span.name == name]

    def render(self) -> str:
        lines = []
        for depth, span in self.walk():
            indent = "  " * depth
            end = f"{span.end:.6f}" if span.end is not None else "…"
            status = "" if span.status == STATUS_OK else f" !{span.status}"
            attrs = " ".join(
                f"{key}={value}" for key, value in span.attributes.items()
            )
            lines.append(
                f"{indent}{span.name} [{span.source}] "
                f"{span.start:.6f}→{end} ({span.duration * 1000:.3f}ms)"
                f"{status}{(' ' + attrs) if attrs else ''}"
            )
        return "\n".join(lines)


def build_trees(spans: List[Span]) -> List[SpanTree]:
    """Assemble flat spans into trees.

    Spans whose parent is missing (evicted from the ring, or still
    active) become roots of their own partial trees.
    """
    nodes = {span.span_id: SpanTree(span) for span in spans}
    roots: List[SpanTree] = []
    for span in spans:
        node = nodes[span.span_id]
        parent = (
            nodes.get(span.parent_id) if span.parent_id is not None else None
        )
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.span.start)
    roots.sort(key=lambda root: root.span.start)
    return roots
