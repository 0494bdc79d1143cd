"""Metric collection for simulations and benchmarks.

A :class:`MetricsRegistry` holds named metrics of three kinds:

* :class:`Counter`   — monotonically increasing totals (bytes sent, ...);
* :class:`Gauge`     — last-written instantaneous values (queue depth, ...);
* :class:`Histogram` — sample distributions with quantiles (latencies, ...).

All metrics are plain in-memory Python; ``snapshot()`` renders the whole
registry to a flat dict for table output and assertions in tests.
Sim-time series of these metrics come from
:class:`~repro.obs.timeseries.TimeSeriesRecorder`, which samples the
registry at a fixed cadence; the registry itself keeps no series.

**Labels.**  Every accessor takes an optional ``labels={"node": ...}``
dimension.  A labeled call returns a *child* metric that forwards every
update to its flat parent, so the unlabeled family keeps reporting the
fleet-wide total verbatim — all existing baselines and diff directions
keep working — while the children add the per-node breakdown under
snapshot keys like ``net.bytes_sent{node="a"}``.  Cardinality is
bounded per family (:data:`DEFAULT_LABEL_CAPACITY`): past the cap, new
label values fold into one ``__other__`` bucket and the spill is
counted in ``obs.labels.overflow``, once per distinct folded series.
A family keeps at most ``cap + 1`` children whatever the fleet size;
what still grows with it is one small entry per distinct folded label
value, shared by all families, that makes the count exact.

**Retention.**  Gauges and histograms keep every written value for
end-of-run quantiles; ``MetricsRegistry(max_samples=N)`` opts into
bounded retention with deterministic ordinal-stride decimation (see
:class:`Histogram`), trading quantile resolution for O(N) memory on
city-scale runs.  Count, sum, and mean stay exact.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Per-family bound on distinct label combinations; past it, new label
#: values fold into the ``__other__`` bucket.
DEFAULT_LABEL_CAPACITY = 64

#: The label value absorbing every series past the cardinality cap.
OVERFLOW_LABEL = "__other__"

_LABELED_KEY_RE = re.compile(
    r"^(?P<base>[^{]+)\{(?P<labels>[^}]*)\}(?P<suffix>.*)$"
)
_LABEL_PAIR_RE = re.compile(r'([A-Za-z_][\w.]*)="((?:[^"\\]|\\.)*)"')


def escape_label_value(value: str) -> str:
    """Escape a label value for ``name{k="v"}`` keys (Prometheus rules)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


_UNESCAPE_RE = re.compile(r"\\(.)")

_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def unescape_label_value(value: str) -> str:
    # Single left-to-right pass: sequential str.replace would corrupt
    # an escaped backslash followed by a literal 'n' (r"\\n" must
    # decode to backslash + 'n', not to a newline).
    return _UNESCAPE_RE.sub(
        lambda match: _UNESCAPE_MAP.get(match.group(1), match.group(0)),
        value,
    )


def format_labels(labels: Mapping[str, str]) -> str:
    """``{"node": "a"}`` → ``{node="a"}`` (keys sorted, values escaped)."""
    inner = ",".join(
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def labeled_name(name: str, labels: Mapping[str, str]) -> str:
    """The canonical storage/snapshot key of one labeled series."""
    return name + format_labels(labels)


def split_labeled(key: str) -> Tuple[str, Optional[Dict[str, str]]]:
    """Parse a snapshot key back into ``(flat key, labels or None)``.

    Stat suffixes survive the round trip on the flat side:
    ``a.b{node="x"}.p99`` → ``("a.b.p99", {"node": "x"})``.
    """
    match = _LABELED_KEY_RE.match(key)
    if match is None:
        return key, None
    labels = {
        pair.group(1): unescape_label_value(pair.group(2))
        for pair in _LABEL_PAIR_RE.finditer(match.group("labels"))
    }
    return match.group("base") + match.group("suffix"), labels


def rollup_by_label(
    metrics: Mapping[str, float], label: str = "node"
) -> Dict[str, Dict[str, float]]:
    """Group a flat snapshot's labeled keys per label value.

    Returns ``{label value: {flat metric key: value}}`` — the ``nodes``
    section of a run report.  Unlabeled keys are skipped (they are the
    fleet-wide totals the top-level ``metrics`` section already has).
    """
    rollup: Dict[str, Dict[str, float]] = {}
    for key, value in metrics.items():
        base, labels = split_labeled(key)
        if not labels or label not in labels:
            continue
        rollup.setdefault(labels[label], {})[base] = value
    return {node: rollup[node] for node in sorted(rollup)}


def interpolated_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a sorted sequence."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    low_value = ordered[low]
    high_value = ordered[high]
    # a + (b-a)*f keeps the result inside [a, b] under rounding.
    return low_value + (high_value - low_value) * fraction


class Counter:
    """A monotonically increasing total.

    A labeled child (``parent`` set) forwards every increment to the
    flat family total, so ``labels=`` call sites keep the unlabeled
    value bit-identical to the pre-label behaviour.
    """

    def __init__(self, name: str, parent: Optional["Counter"] = None) -> None:
        self.name = name
        self.value = 0.0
        self._parent = parent
        #: ``{key: value}`` for labeled children, ``None`` for parents.
        self.labels: Optional[Dict[str, str]] = None

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        parent = self._parent
        if parent is not None:
            parent.value += amount
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """The most recently written value.

    Every written value is also observed into an unlabeled
    :class:`Histogram` the gauge owns, so the distribution of a gauge
    over a run — notably its median, ``p50`` — is available next to the
    min/max extremes, with the histogram's retention: append-only
    writes, a lazily sorted copy, and under ``max_samples`` the same
    ordinal-stride decimation (quantiles then answer over the retained
    subsample).  ``value``/``min``/``max`` stay exact.  Labeled children
    forward each write to the flat parent (last write wins there, as if
    the call sites were unlabeled).
    """

    def __init__(
        self,
        name: str,
        parent: Optional["Gauge"] = None,
        max_samples: Optional[int] = None,
    ) -> None:
        self.name = name
        self.value: float = 0.0
        self._parent = parent
        self.labels: Optional[Dict[str, str]] = None
        self._max = -math.inf
        self._min = math.inf
        self._samples = Histogram(name, max_samples=max_samples)

    def set(self, value: float) -> None:
        parent = self._parent
        if parent is not None:
            parent.set(value)
        self.value = value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value
        self._samples.observe(value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    @property
    def max(self) -> float:
        """Largest value ever set (0.0 for a never-set gauge)."""
        return self._max if self._max != -math.inf else 0.0

    @property
    def min(self) -> float:
        """Smallest value ever set (0.0 for a never-set gauge)."""
        return self._min if self._min != math.inf else 0.0

    @property
    def touched(self) -> bool:
        """True once ``set``/``add`` has been called at least once."""
        return self._max != -math.inf

    @property
    def observed(self) -> int:
        """Total values ever written (decimation does not shrink it)."""
        return self._samples.observed

    @property
    def retained(self) -> int:
        """Values currently held for quantile queries."""
        return self._samples.retained

    def quantile(self, q: float) -> float:
        """Quantile ``q`` over the retained written values (0.0 if none)."""
        return self._samples.quantile(q)

    @property
    def p50(self) -> float:
        """Median of every value ever written (0.0 for a never-set gauge)."""
        return self._samples.p50

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """A distribution of samples with mean and quantile queries.

    ``observe`` is O(1): samples go into an append-only buffer; a
    *sorted copy* is built lazily on the first quantile/min/max query
    after new data (hot paths observe millions of samples; quantiles
    are read once at the end of a run).  The observation buffer itself
    is never reordered, so :meth:`samples_since` can hand out stable
    insertion-order windows — what the time-series recorder uses for
    windowed per-cadence quantiles.

    With ``max_samples`` set, retention is bounded by ordinal-stride
    decimation: whenever the buffer exceeds the cap it is compacted to
    every other element and the keep-stride doubles, so the retained
    ordinals are always exact multiples of the stride (pure function of
    the observation sequence — two same-seed runs decimate
    identically).  ``count``/``sum``/``mean`` remain exact; quantiles
    and min/max answer over the retained subsample.  Labeled children
    forward each observation to the flat parent.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["Histogram"] = None,
        max_samples: Optional[int] = None,
    ) -> None:
        self.name = name
        self._parent = parent
        self.labels: Optional[Dict[str, str]] = None
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._sorted: List[float] = []
        self._dirty = False
        self._sum = 0.0
        self._observed = 0
        self._stride = 1

    def observe(self, value: float) -> None:
        parent = self._parent
        if parent is not None:
            parent.observe(value)
        self._sum += value
        ordinal = self._observed
        self._observed = ordinal + 1
        cap = self.max_samples
        if cap is None:
            self._samples.append(value)
            self._dirty = True
            return
        if ordinal % self._stride:
            return
        self._samples.append(value)
        self._dirty = True
        if len(self._samples) > cap:
            self._samples = self._samples[::2]
            self._stride *= 2

    def _ordered(self) -> List[float]:
        if self._dirty:
            self._sorted = sorted(self._samples)
            self._dirty = False
        return self._sorted

    def samples_since(self, ordinal: int) -> List[float]:
        """Retained samples observed at or after ``ordinal``, in
        insertion order.

        ``ordinal`` counts *observations* (see :attr:`observed`), not
        buffer positions, so windows stay correct across decimation —
        without a cap the two are the same thing.
        """
        stride = self._stride
        if stride == 1:
            return self._samples[ordinal:]
        return self._samples[-(-ordinal // stride):]

    @property
    def count(self) -> int:
        """Total observations (exact even under decimation)."""
        return self._observed

    @property
    def retained(self) -> int:
        """Samples currently held for quantile queries."""
        return len(self._samples)

    @property
    def observed(self) -> int:
        """Alias of :attr:`count` (the window-bookkeeping name)."""
        return self._observed

    @property
    def mean(self) -> float:
        return self._sum / self._observed if self._observed else 0.0

    @property
    def total(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile ``q`` in [0, 1]."""
        return interpolated_quantile(self._ordered(), q)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    #: ``p50`` is the naming used in snapshots (p50/p95/p99 family).
    p50 = median

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def max(self) -> float:
        ordered = self._ordered()
        return ordered[-1] if ordered else 0.0

    @property
    def min(self) -> float:
        ordered = self._ordered()
        return ordered[0] if ordered else 0.0

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class MetricsRegistry:
    """Namespace of metrics, created lazily on first access.

    ``max_samples`` opts every gauge/histogram into bounded retention
    (see :class:`Histogram`); ``label_capacity`` bounds distinct label
    combinations per family before the ``__other__`` fold.
    """

    def __init__(
        self,
        max_samples: Optional[int] = None,
        label_capacity: int = DEFAULT_LABEL_CAPACITY,
    ) -> None:
        if max_samples is not None and max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        if label_capacity < 1:
            raise ValueError("label_capacity must be >= 1")
        self.max_samples = max_samples
        self.label_capacity = label_capacity
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: (family, sorted label items) -> child metric, for the at
        #: most ``label_capacity + 1`` children of each family: the
        #: series under the cap and the ``__other__`` fold.
        self._labeled: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        #: family -> distinct labeled children created (the bound).
        self._cardinality: Dict[str, int] = {}
        #: family past its cap -> {label names -> (``__other__`` child,
        #: the fold's bit)}; see :meth:`_child`.  ``_fold_count`` bits
        #: are handed out so far.
        self._folds: Dict[str, Dict[object, Tuple[object, int]]] = {}
        self._fold_count = 0
        #: folded label values -> bits of the folds that have seen them.
        self._folded: Dict[object, int] = {}

    # -- accessors -----------------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        if labels:
            return self._child(self._counters, self._new_counter, name, labels)
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        if labels:
            return self._child(self._gauges, self._new_gauge, name, labels)
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = self._new_gauge(name)
        return gauge

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Histogram:
        if labels:
            return self._child(
                self._histograms, self._new_histogram, name, labels
            )
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = self._new_histogram(name)
        return histogram

    def _new_counter(self, name: str, parent: Optional[Counter] = None):
        return Counter(name, parent=parent)

    def _new_gauge(self, name: str, parent: Optional[Gauge] = None):
        return Gauge(name, parent=parent, max_samples=self.max_samples)

    def _new_histogram(self, name: str, parent: Optional[Histogram] = None):
        return Histogram(name, parent=parent, max_samples=self.max_samples)

    # -- labeled children ----------------------------------------------------

    def _child(self, store, factory, name: str, labels):
        if len(labels) == 1:
            # The usual one-label call: no sort, no generator.
            ((label, value),) = labels.items()
            items = ((str(label), str(value)),)
        else:
            items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        child = self._labeled.get((name, items))
        if child is not None:
            return child
        folds = self._folds.get(name)
        if folds is None:
            child = self._register_child(store, factory, name, items)
            if self._cardinality[name] >= self.label_capacity:
                self._folds[name] = {}
            return child
        # Past the family's cap: the series folds into the family's
        # __other__ child (one per label-name set, created on first
        # spill), and the overflow is counted once per distinct folded
        # series.  A fleet past the cap adds no key per host: each fold
        # owns one bit, and the folded label values (for the usual
        # one-label family, the value string the caller already holds)
        # map to the bits of the folds that have seen them.
        if len(items) == 1:
            ((names, values),) = items
        else:
            names = tuple(label for label, _ in items)
            values = tuple(value for _, value in items)
        fold = folds.get(names)
        if fold is None:
            other = tuple((label, OVERFLOW_LABEL) for label, _ in items)
            fold = folds[names] = (
                self._register_child(store, factory, name, other),
                1 << self._fold_count,
            )
            self._fold_count += 1
        child, bit = fold
        seen = self._folded.get(values, 0)
        if not seen & bit:
            self._folded[values] = seen | bit
            self.counter("obs.labels.overflow").increment()
        return child

    def _register_child(self, store, factory, name, items):
        parent = store.get(name)
        if parent is None:
            parent = store[name] = factory(name)
        labels = dict(items)
        child = factory(labeled_name(name, labels), parent=parent)
        child.labels = labels
        store[child.name] = child
        self._labeled[(name, items)] = child
        self._cardinality[name] = self._cardinality.get(name, 0) + 1
        self.counter("obs.labels.series").increment()
        return child

    def labeled_children(self, name: str, label: str = "node"):
        """``{label value -> child}`` for one family (creates nothing).

        Folded series all surface as the single ``__other__`` entry.
        The health engine sweeps families through this accessor, so an
        armed-but-quiet engine leaves the registry untouched.
        """
        children: Dict[str, object] = {}
        for (family, _items), child in self._labeled.items():
            if family != name:
                continue
            value = child.labels.get(label) if child.labels else None
            if value is not None:
                children[value] = child
        return children

    def label_cardinality(self, name: str) -> int:
        """Distinct labeled series created for one family (bounded)."""
        return self._cardinality.get(name, 0)

    # -- rendering -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten every metric into ``name[.stat] -> value``.

        Labeled children appear under their ``family{k="v"}`` keys next
        to the flat family totals (see :func:`split_labeled` /
        :func:`rollup_by_label` for parsing them back apart).
        """
        snapshot: Dict[str, float] = {}
        for name, counter in self._counters.items():
            snapshot[name] = counter.value
        for name, gauge in self._gauges.items():
            snapshot[name] = gauge.value
            # Sane (0.0, never ±inf) even for never-set gauges.
            snapshot[f"{name}.min"] = gauge.min
            snapshot[f"{name}.max"] = gauge.max
            snapshot[f"{name}.p50"] = gauge.p50
        for name, histogram in self._histograms.items():
            snapshot[f"{name}.count"] = float(histogram.count)
            snapshot[f"{name}.sum"] = histogram.total
            snapshot[f"{name}.mean"] = histogram.mean
            snapshot[f"{name}.median"] = histogram.median
            snapshot[f"{name}.p50"] = histogram.p50
            snapshot[f"{name}.p95"] = histogram.p95
            snapshot[f"{name}.p99"] = histogram.p99
            snapshot[f"{name}.min"] = histogram.min
            snapshot[f"{name}.max"] = histogram.max
        return snapshot

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )
