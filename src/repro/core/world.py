"""The :class:`World`: shared plumbing of one simulated deployment.

Every experiment builds one ``World`` (kernel, network, transport,
random streams, trace, metrics) and then creates
:class:`~repro.core.host.MobileHost` instances inside it.  Bundling
these avoids threading six constructor arguments through every layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..net import (
    Network,
    NetworkNode,
    Position,
    Transport,
    LinkTechnology,
)
from ..obs import SpanTracer, TimeSeriesRecorder
from ..sim import Environment, MetricsRegistry, RandomStreams, TraceLog


class World:
    """One simulated deployment: kernel + network + shared observability."""

    def __init__(self, seed: int = 0, trace_enabled: bool = False) -> None:
        self.seed = seed
        self.env = Environment()
        self.streams = RandomStreams(seed)
        self.network = Network(self.env)
        self.trace = TraceLog()
        self.metrics = MetricsRegistry()
        #: Causal spans, stored only when ``trace_enabled``.
        self.tracer = SpanTracer(
            now=lambda: self.env.now, trace=self.trace, enabled=trace_enabled
        )
        self.transport = Transport(
            self.env,
            self.network,
            self.streams,
            trace=self.trace,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        #: Optional cadence sampler (see :meth:`sample_series`); when
        #: set, ``RunReport.capture`` emits its points as ``series``.
        self.timeseries: Optional[TimeSeriesRecorder] = None
        #: Optional in-run SLO monitor (see :meth:`enable_health`);
        #: when set, ``RunReport.capture`` emits its breach events and
        #: flight-recorder dumps as ``health``/``flight``.
        self.health = None
        #: Every :class:`~repro.core.host.MobileHost` registered on this
        #: world, by node id — how fault injectors reach a host's guest
        #: substrate and the paradigm selector reads a peer's quota
        #: grants (the simulator's global-knowledge idiom).
        self.hosts: Dict[str, object] = {}

    def sample_series(
        self,
        cadence: float = 1.0,
        capacity: int = 1024,
        names: Optional[Iterable[str]] = None,
        histogram_stats: Iterable[str] = ("p50", "p99"),
    ) -> TimeSeriesRecorder:
        """Attach (and return) a sim-time metrics sampler.

        Every ``cadence`` simulated seconds the recorder sweeps
        ``world.metrics`` into ring-buffered (time, value) series —
        counters/gauges by value, histograms by windowed quantiles —
        which ``RunReport.capture`` then carries under ``series``.
        """
        def topo_probe() -> dict:
            return {
                f"net.topo.{key}": value
                for key, value in self.network.cache_info().items()
            }

        recorder = TimeSeriesRecorder(
            self.metrics,
            cadence=cadence,
            capacity=capacity,
            names=list(names) if names is not None else None,
            histogram_stats=tuple(histogram_stats),
            extra_probe=topo_probe,
        )
        self.timeseries = recorder.attach(self.env)
        return recorder

    def enable_health(
        self,
        slos,
        cadence: float = 5.0,
        capacity: int = 256,
        flight_capacity: int = 64,
    ):
        """Arm in-run fleet health monitoring for this world.

        Attaches a :meth:`sample_series` recorder when none exists (the
        :class:`~repro.obs.health.HealthEngine` evaluates on its
        cadence), plugs a :class:`~repro.obs.health.FlightRecorder`
        into the trace log, and returns the engine.  An armed engine
        whose SLOs never breach changes nothing observable: metric
        values, spans, and the captured report stay bit-identical to a
        run with the same recorder and no engine.
        """
        from ..obs.health import FlightRecorder, HealthEngine

        if self.health is not None:
            raise RuntimeError("world already has a health engine")
        recorder = self.timeseries
        if recorder is None:
            recorder = self.sample_series(cadence=cadence, capacity=capacity)
        flight = FlightRecorder(capacity=flight_capacity)
        self.trace.flight = flight
        engine = HealthEngine(
            self.metrics, slos, tracer=self.tracer, flight=flight
        )
        recorder.health = engine
        self.health = engine
        return engine

    @property
    def now(self) -> float:
        return self.env.now

    def add_node(
        self,
        node_id: str,
        position: Position = Position(0.0, 0.0),
        technologies: Iterable[LinkTechnology] = (),
        fixed: bool = False,
        cpu_speed: float = 1.0,
    ) -> NetworkNode:
        """Create and register a bare network node."""
        node = NetworkNode(
            self.env,
            node_id,
            position=position,
            technologies=technologies,
            fixed=fixed,
            cpu_speed=cpu_speed,
        )
        return self.network.add_node(node)

    def run(self, until: Optional[object] = None) -> object:
        """Run the simulation (delegates to the kernel environment)."""
        return self.env.run(until=until)

    def summary(self) -> dict:
        """A flat snapshot of the deployment's key figures.

        Combines the metric registry with per-fleet traffic and money
        totals — what an experiment typically reports at the end.
        """
        from ..net import CostMeter

        fleet = CostMeter()
        for node in self.network.nodes.values():
            node.settle_airtime()
            fleet.merge(node.costs)
        snapshot = dict(self.metrics.snapshot())
        snapshot.update(
            {
                "world.now": self.env.now,
                "world.nodes": float(len(self.network)),
                "fleet.bytes_sent": float(fleet.total_bytes_sent),
                "fleet.bytes_received": float(fleet.total_bytes_received),
                "fleet.wireless_bytes": float(fleet.wireless_bytes()),
                "fleet.money": fleet.money,
            }
        )
        # Topology-cache effectiveness (see docs/PERFORMANCE.md).
        for key, value in self.network.cache_info().items():
            snapshot[f"net.topo.{key}"] = value
        return snapshot
