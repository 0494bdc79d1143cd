"""Macrobenchmark — city-scale routing on 1k..10k-node worlds.

The scaling guard for the city-scale fabric (dirty-set invalidation,
hierarchical cell routing — see
docs/PERFORMANCE.md, "City-scale routing").  Each sweep round replays
the traffic shape a paradigm-heavy simulation produces: a handful of
nodes move, a batch of multi-hop paths is planned between distinct
endpoints, and a sample of nodes scans its neighbourhood.

Two configurations run the same script:

* **legacy** (1k nodes): a flat :class:`RoutingTable`, where any
  epoch bump discards every memoised tree and each re-plan pays a
  full-component BFS;
* **hierarchical** (1k → 10k nodes): :class:`HierarchicalRouter`
  over the dirty-cell journal.

The gated metric is ``scaling_speedup`` = legacy-1k round time /
hierarchical round time at the largest size: a floor of 1.0 means
"a 10k-node round costs no more than the old code spent on 1k nodes"
(>= 10x effective scaling).  The full size curve is written to the
report/trajectory for trend tracking but deliberately kept out of the
baseline (absolute wall-clock varies across machines; the ratio is
the invariant).
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from repro.net import (
    HierarchicalRouter,
    Network,
    NetworkNode,
    Position,
    RoutingTable,
    WIFI_ADHOC,
)
from repro.sim import Environment, MetricsRegistry

from _common import gate_against_baseline, quick, write_report_data, write_result

#: Grid pitch between nodes; below WIFI range (100 m) so the world is a
#: connected mesh with ~8 radio neighbours per node.
SPACING_M = 75.0
MOVERS_PER_ROUND = 20
PATHS_PER_ROUND = 30
SCANS_PER_ROUND = 50

#: Sample cap for the benchmark's metric registry: gauges/histograms
#: decimate (deterministic ordinal-stride thinning) instead of holding
#: one float per observation across the whole sweep.
MAX_RETAINED = 64


def sizes():
    return [1000] if quick() else [1000, 2500, 5000, 10000]


def rounds_per_size():
    return 2 if quick() else 3


def _build_world(count):
    env = Environment()
    network = Network(env)
    side = int(math.ceil(math.sqrt(count)))
    for index in range(count):
        network.add_node(
            NetworkNode(
                env,
                f"n{index}",
                Position(SPACING_M * (index % side), SPACING_M * (index // side)),
                technologies=[WIFI_ADHOC],
            )
        )
    return network


def _script(count, rounds):
    """Deterministic rounds of (moves, path queries, scan targets).

    Path endpoints are drawn once per world size and repeated every
    round: paradigm traffic is request/reply between long-lived peers
    (clients keep invoking the same remote servers), so planners that
    remember answers across rounds are allowed to shine — and pay for
    a re-plan whenever a mover dirties one of their routes.  Movers
    and scan targets re-roll every round.
    """
    rng = random.Random(count)
    side = int(math.ceil(math.sqrt(count)))
    extent = SPACING_M * side
    sources = rng.sample(range(count), PATHS_PER_ROUND)
    pairs = [
        (f"n{source}", f"n{rng.randrange(count)}") for source in sources
    ]
    script = []
    for _round in range(rounds):
        moves = [
            (
                f"n{rng.randrange(count)}",
                Position(rng.uniform(0, extent), rng.uniform(0, extent)),
            )
            for _ in range(MOVERS_PER_ROUND)
        ]
        scans = [f"n{rng.randrange(count)}" for _ in range(SCANS_PER_ROUND)]
        script.append((moves, pairs, scans))
    return script


def _run_rounds(network, planner, script, warmup=1):
    """Replay the script; returns mean wall-clock seconds per timed
    round.  The first ``warmup`` rounds prime caches and are excluded
    from timing — both configurations get the identical treatment (it
    does not help the legacy table, which forgets everything on every
    epoch bump anyway)."""
    nodes = network.nodes
    started = perf_counter()
    for index, (moves, pairs, scans) in enumerate(script):
        if index == warmup:
            started = perf_counter()
        for node_id, position in moves:
            nodes[node_id].move_to(position)
        for source_id, target_id in pairs:
            planner.path(source_id, target_id)
        for node_id in scans:
            network.neighbors(nodes[node_id])
    return (perf_counter() - started) / (len(script) - warmup)


def test_city_scale_round_beats_legacy_1k(benchmark):
    """A hierarchical 10k-node round must cost <= a legacy 1k round.

    The floor lives in ``baselines/macro_net[_quick].json`` and is the
    shared report-diff gate; CI re-checks it via ``python -m repro
    compare --fail-on regress``.
    """
    rounds = rounds_per_size()
    base_size = sizes()[0]

    # Long benchmarks meter through a sample-capped registry: every
    # planner counter is per-source labeled, and unbounded histograms
    # decimate down to MAX_RETAINED samples instead of growing with the
    # sweep (both planners carry the identical metering overhead, so
    # the gated ratio is unaffected).
    registry = MetricsRegistry(max_samples=MAX_RETAINED)

    legacy_network = _build_world(base_size)
    legacy_table = RoutingTable(
        legacy_network, adhoc_only=True, metrics=registry
    )
    legacy_round_s = _run_rounds(
        legacy_network, legacy_table, _script(base_size, rounds + 1)
    )

    curve = {}
    top_network = None
    top_planner = None
    for size in sizes():
        network = _build_world(size)
        planner = HierarchicalRouter(
            network, adhoc_only=True, metrics=registry
        )
        curve[size] = _run_rounds(network, planner, _script(size, rounds + 1))
        top_network, top_planner = network, planner

    top_size = sizes()[-1]
    scaling_speedup = legacy_round_s / curve[top_size]

    # Reachability spot-check at the final (post-mobility) topology:
    # the planner and the flat BFS must agree pair by pair.
    rng = random.Random(99)
    for _ in range(10):
        a = f"n{rng.randrange(top_size)}"
        b = f"n{rng.randrange(top_size)}"
        flat = top_network.shortest_path(a, b, adhoc_only=True)
        hier = top_planner.path(a, b)
        assert (hier is None) == (flat is None)
        if hier is not None and a != b:
            graph = top_network.adjacency(adhoc_only=True)
            for current, following in zip(hier, hier[1:]):
                assert following in graph[current]

    # Untimed replay: meter every path query of the largest world into a
    # capped histogram.  Well over MAX_RETAINED observations go in; the
    # decimated reservoir must keep the exact count/sum while retaining
    # at most the cap (plus fresh post-compaction arrivals).
    path_seconds = registry.histogram("macro.path_seconds")
    pairs = _script(top_size, 1)[0][1]
    for _replay in range(3 * MAX_RETAINED // PATHS_PER_ROUND + 1):
        for source_id, target_id in pairs:
            started = perf_counter()
            top_planner.path(source_id, target_id)
            path_seconds.observe(perf_counter() - started)
    assert path_seconds.observed > MAX_RETAINED
    assert path_seconds.count == path_seconds.observed, (
        "decimation lost the histogram's exact observation count"
    )
    assert path_seconds.retained <= MAX_RETAINED, (
        f"cap ignored: retained {path_seconds.retained} samples "
        f"(max_samples={MAX_RETAINED})"
    )

    lines = [
        f"city-scale routing ({rounds} rounds, {MOVERS_PER_ROUND} movers, "
        f"{PATHS_PER_ROUND} paths, {SCANS_PER_ROUND} scans per round)",
        f"  legacy flat table @ {base_size}: {legacy_round_s * 1000:.1f} ms/round",
    ]
    for size, seconds in curve.items():
        lines.append(
            f"  hierarchical     @ {size}: {seconds * 1000:.1f} ms/round"
        )
    lines.append(
        f"  scaling speedup (legacy {base_size} / hier {top_size}): "
        f"{scaling_speedup:.1f}x"
    )
    write_result("macro_net", "\n".join(lines))

    info = top_network.cache_info()
    metrics = {
        "rounds": float(rounds),
        "nodes_top": float(top_size),
        "legacy_round_seconds": legacy_round_s,
        "scaling_speedup": scaling_speedup,
        "topo.dirty_nodes": info["dirty_nodes"],
        "topo.revalidations": info["revalidations"],
        "routing.hier.hits": float(top_planner.stats["hits"]),
        "routing.hier.misses": float(top_planner.stats["misses"]),
        "routing.hier.greedy": float(top_planner.stats["greedy"]),
        "routing.hier.flat_fallback": float(top_planner.stats["flat_fallback"]),
        # Decimated reservoir bookkeeping (neutral directions): exact
        # observation count vs. samples actually held under the cap.
        "macro.path_seconds.observed": float(path_seconds.observed),
        "macro.path_seconds.retained": float(path_seconds.retained),
        "obs.labels.series": registry.counter("obs.labels.series").value,
    }
    for size, seconds in curve.items():
        metrics[f"hier_round_seconds_{size}"] = seconds
    path = write_report_data(
        "macro_net", metrics=metrics, params={"quick": quick()}
    )
    gate_against_baseline("macro_net", path)
    benchmark.pedantic(
        lambda: _run_rounds(
            top_network, top_planner, _script(top_size, 1), warmup=0
        ),
        rounds=1,
        iterations=1,
    )
