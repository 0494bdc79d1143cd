"""Discrete-event simulation kernel.

A from-scratch generator-process kernel in the style popularised by
SimPy, plus the supporting cast a systems simulation needs: blocking
stores, counting resources, named deterministic random streams, a
metrics registry, and a per-kind trace counter.

Quick taste::

    from repro.sim import Environment

    env = Environment()

    def pinger(env):
        while True:
            yield env.timeout(1.0)
            print("ping at", env.now)

    env.process(pinger(env))
    env.run(until=3.5)
"""

from .environment import Environment
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .process import Process
from .rng import RandomStreams, derive_seed
from .stores import Resource, Store
from .tracing import TraceLog

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Process",
    "RandomStreams",
    "Resource",
    "Store",
    "Timeout",
    "TraceLog",
    "derive_seed",
]
