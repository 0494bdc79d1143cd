"""Sim-time sampling of the metrics registry into bounded series.

Point-in-time aggregates (``MetricsRegistry.snapshot()``) say where a
run *ended*; they cannot show the queue that built and drained, the
link churn of a mobility burst, or when the adaptation engine flipped
paradigms.  :class:`TimeSeriesRecorder` closes that gap: attached to an
:class:`~repro.sim.environment.Environment`, it samples the registry at
a fixed *simulated-time* cadence —

* every **counter** and **gauge** by current value;
* every **histogram** by *windowed* statistics (count and quantiles of
  only the samples observed since the previous tick);

— into per-metric ring buffers (``deque(maxlen=capacity)``), so memory
stays bounded no matter how long the run is.  Sampling piggybacks on
the kernel's step loop (no events of its own, so it neither keeps an
idle simulation alive nor perturbs event ordering).  A cadence
boundary *b* is swept once every event at time <= *b* has run: just
before the first event later than *b*, or when ``run(until)`` stops
past *b*.  The sweep is stamped *b*, so a sample never depends on how
many events an instant took or in what order they ran.  A quiet gap
over several boundaries gives one sweep, not a backfill burst.  A
detached environment pays a single ``is not None`` check per event;
an attached recorder, one comparison more.

The captured series travel inside :class:`~repro.obs.report.RunReport`
(schema v2, top-level key ``series``), giving every benchmark a
per-epoch view next to its final aggregates.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..sim.metrics import MetricsRegistry, interpolated_quantile

#: Windowed statistics recorded per histogram at each tick.
DEFAULT_HISTOGRAM_STATS = ("p50", "p99")

DEFAULT_CADENCE = 1.0
DEFAULT_CAPACITY = 1024


class TimeSeriesRecorder:
    """Samples registered metrics on a sim-time cadence, ring-buffered.

    ``cadence`` is in simulated seconds; ``capacity`` bounds the number
    of retained points *per series* (oldest evicted first).  ``names``
    optionally restricts sampling to an explicit set of metric names;
    by default every counter/gauge/histogram present in the registry at
    tick time is swept, so metrics created mid-run join automatically.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        cadence: float = DEFAULT_CADENCE,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
        names: Optional[Sequence[str]] = None,
        histogram_stats: Sequence[str] = DEFAULT_HISTOGRAM_STATS,
        extra_probe=None,
    ) -> None:
        if cadence <= 0:
            raise ValueError(f"cadence must be positive, got {cadence}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.metrics = metrics
        self.cadence = float(cadence)
        self.capacity = int(capacity)
        self.enabled = enabled
        self.names = frozenset(names) if names is not None else None
        #: Optional ``() -> {name: value}`` swept alongside the
        #: registry — for figures that live outside it (e.g. the
        #: network's topology-cache counters, ``net.topo.*``).
        self.extra_probe = extra_probe
        self._quantiles: Tuple[Tuple[str, float], ...] = tuple(
            (stat, _parse_stat(stat)) for stat in histogram_stats
        )
        self._series: Dict[str, Deque[Tuple[float, float]]] = {}
        #: Per-histogram observation ordinal already consumed by
        #: earlier windows (``Histogram.observed``, not a buffer
        #: index — stable across ``max_samples`` decimation).
        self._consumed: Dict[str, int] = {}
        #: The next cadence boundary to sweep; the kernel reads it
        #: before each event (see :meth:`close`).
        self.due = 0.0
        self._env = None
        self.samples_taken = 0
        #: Optional :class:`~repro.obs.health.HealthEngine` evaluated
        #: at the tail of every sweep (same sim-time cadence).
        self.health = None

    # -- kernel attachment ---------------------------------------------------

    def attach(self, env) -> "TimeSeriesRecorder":
        """Hook into ``env``'s step loop (one recorder per environment).
        The first sweep is the first boundary at or after ``env.now``."""
        if env._sampler is not None:
            raise RuntimeError("environment already has a sampler attached")
        env._sampler = self
        self._env = env
        self.due = self._boundary_at_or_after(env.now)
        return self

    def detach(self) -> "TimeSeriesRecorder":
        """Stop sampling; already-captured points are kept."""
        if self._env is not None:
            self._env._sampler = None
            self._env = None
        return self

    @property
    def attached(self) -> bool:
        return self._env is not None

    def close(self, upcoming: float) -> None:
        """Kernel hook: every event at or before ``due`` has run, and
        the next one is at ``upcoming`` (or the run stops there).

        Sweeps ``due`` and moves it to the first boundary at or after
        ``upcoming``: the boundaries in between see the same state, so
        they get no sweep.  A disabled recorder sweeps nothing and sets
        ``due`` to infinity, so the kernel never calls it again (guarded
        by ``tests/obs/test_timeseries.py``).
        """
        if not self.enabled:
            self.due = math.inf
            return
        self._sweep(self.due)
        self.due = self._boundary_at_or_after(upcoming)

    def _boundary_at_or_after(self, time: float) -> float:
        cadence = self.cadence
        index = math.ceil(time / cadence)
        # ``time / cadence`` can round either way; the grid point decides.
        if (index - 1) * cadence >= time:
            index -= 1
        elif index * cadence < time:
            index += 1
        return index * cadence

    # -- sampling ------------------------------------------------------------

    def sample(self, now: float) -> None:
        """Sweep the registry once at time ``now``, off the cadence (a
        final sample after ``run()`` returns, say); the next sweep is
        the first boundary after ``now``."""
        self._sweep(now)
        self.due = (math.floor(now / self.cadence) + 1.0) * self.cadence

    def _sweep(self, now: float) -> None:
        record = self._record
        names = self.names
        for name, counter in self.metrics._counters.items():
            if names is None or name in names:
                record(name, now, counter.value)
        for name, gauge in self.metrics._gauges.items():
            if names is None or name in names:
                record(name, now, gauge.value)
        for name, histogram in self.metrics._histograms.items():
            if names is not None and name not in names:
                continue
            start = self._consumed.get(name, 0)
            window = histogram.samples_since(start)
            self._consumed[name] = histogram.observed
            record(f"{name}.count", now, float(len(window)))
            if window:
                ordered = sorted(window)
                for stat, q in self._quantiles:
                    record(
                        f"{name}.{stat}",
                        now,
                        interpolated_quantile(ordered, q),
                    )
        if self.extra_probe is not None:
            for name, value in self.extra_probe().items():
                if names is None or name in names:
                    record(name, now, float(value))
        self.samples_taken += 1
        if self.health is not None:
            self.health.evaluate(now)

    def _record(self, name: str, time: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = deque(maxlen=self.capacity)
        series.append((time, value))

    # -- inspection ------------------------------------------------------------

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def points(self, name: str) -> List[Tuple[float, float]]:
        """The retained (sim_time, value) points for one series."""
        return list(self._series.get(name, ()))

    def window_quantiles(self, name: str, stat: str) -> List[Tuple[float, float]]:
        """Convenience accessor for a histogram's windowed stat series."""
        return self.points(f"{name}.{stat}")

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form: the ``series`` section of a RunReport."""
        return {
            "cadence": self.cadence,
            "capacity": self.capacity,
            "samples": self.samples_taken,
            "series": {
                name: {
                    "times": [time for time, _ in points],
                    "values": [value for _, value in points],
                }
                for name, points in sorted(self._series.items())
            },
        }


def _parse_stat(stat: str) -> float:
    """``"p50"`` → 0.5 (validated here so bad specs fail at set-up)."""
    if not stat.startswith("p"):
        raise ValueError(f"histogram stat {stat!r} must look like 'p50'")
    try:
        percent = float(stat[1:])
    except ValueError:
        raise ValueError(f"histogram stat {stat!r} must look like 'p50'")
    if not 0.0 <= percent <= 100.0:
        raise ValueError(f"histogram stat {stat!r} outside p0..p100")
    return percent / 100.0
