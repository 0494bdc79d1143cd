"""The layer map, and the roll-up of a cProfile run into it.

Every module under ``src/repro`` belongs to exactly one layer (the
completeness test in ``test_e2e.py`` enforces it).  The benchmark's own
files form the ``bench`` layer.  Self time of a frame outside both —
the standard library and builtins — is charged to the nearest ``repro``
caller, split by how much of that frame's time each caller paid for, so
``heapq.heappush`` under the kernel counts as kernel time.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_REPRO = os.path.join(ROOT, "src", "repro")

#: Layer -> module patterns, relative to ``src/repro`` without ``.py``.
#: ``pkg/*`` matches every module of a package (``pkg/__init__`` too).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "sim/__init__",
        "sim/environment",
        "sim/events",
        "sim/process",
        "sim/stores",
        "sim/rng",
    ),
    "obs": ("sim/metrics", "sim/tracing", "obs/*"),
    "net.topology": (
        "net/__init__",
        "net/network",
        "net/node",
        "net/geometry",
        "net/mobility",
        "net/technologies",
        "net/cost",
        "net/monitor",
        "net/traceio",
        "net/reference",
    ),
    "net.transport": ("net/transport", "net/message"),
    "net.routing": ("net/routing",),
    "core.invocation": (
        "core/invocation",
        "core/host",
        "core/outbox",
        "errors",
    ),
    "core.paradigms": (
        "core/__init__",
        "core/adaptation",
        "core/agents",
        "core/assessment",
        "core/builders",
        "core/cod",
        "core/components",
        "core/context",
        "core/cs",
        "core/discovery",
        "core/handover",
        "core/lookup",
        "core/prefetch",
        "core/rev",
        "core/services",
        "core/update",
        "core/world",
        "apps/*",
    ),
    "lmu": ("lmu/*",),
    "security": ("security/*",),
    "faults": ("faults/*",),
    "tuplespace": ("tuplespace/*",),
    "other": (
        "__init__",
        "__main__",
        "analysis/*",
        "runner/*",
        "workloads/*",
    ),
}

#: The benchmark's own files (not under ``src/repro``).
BENCH = "bench"

#: Every layer a roll-up reports, in table order.
ALL_LAYERS = tuple(LAYERS) + (BENCH,)


def matching_layers(module: str) -> list:
    """Every layer with a pattern matching ``module`` (e.g. ``net/node``)."""
    found = []
    for layer, patterns in LAYERS.items():
        for pattern in patterns:
            if pattern.endswith("/*"):
                hit = module.startswith(pattern[:-1])
            else:
                hit = module == pattern
            if hit:
                found.append(layer)
                break
    return found


def layer_of_file(path: str) -> Optional[str]:
    """The layer owning a source file, or None for foreign code."""
    path = os.path.abspath(path)
    if path.startswith(SRC_REPRO + os.sep):
        module = os.path.relpath(path, SRC_REPRO)[: -len(".py")]
        found = matching_layers(module.replace(os.sep, "/"))
        return found[0] if found else "other"
    if path.startswith(HERE + os.sep):
        return BENCH
    return None


def rollup(stats: dict) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from ``pstats.Stats(...).stats``.

    ``calls`` counts calls of the layer's own functions; foreign frames
    add self time to their callers' layers but no calls.  Foreign time
    with no ``repro`` or benchmark frame above it lands in ``other``.
    """
    owner = {func: layer_of_file(func[0]) for func in stats}
    shares: Dict[tuple, Dict[str, float]] = {}

    def attribute(func: tuple) -> Dict[str, float]:
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {"other": 1.0}  # cycle guard while recursing
        callers = stats[func][4] if func in stats else {}
        # Weight each caller by the self time it paid for, falling back
        # to call counts for frames too short for the timer.
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return shares[func]
        split: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, fraction in attribute(caller).items():
                split[layer] += fraction * weight / total
        shares[func] = dict(split)
        return shares[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for target, fraction in attribute(func).items():
            self_s[target] += tt * fraction
    return {
        layer: {"self_s": self_s[layer], "calls": calls[layer]}
        for layer in ALL_LAYERS
    }


def call_count(stats: dict, module: str, function: str) -> int:
    """Calls of ``function`` defined in ``src/repro/<module>.py``."""
    path = os.path.join(SRC_REPRO, *module.split("/")) + ".py"
    return sum(
        nc
        for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items()
        if name == function and os.path.abspath(filename) == path
    )
