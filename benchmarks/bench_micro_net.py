"""Microbenchmarks — topology queries on the network fabric.

Wall-clock guard for the topology-epoch caches and the spatial index
(see docs/PERFORMANCE.md): a 200-node ad-hoc deployment under mobility
runs the query pattern a live simulation produces — every node scans
its neighbourhood each beacon, routing snapshots adjacency and plans
paths, and only a fraction of the fleet moves between bursts.  The same
movement/query script is replayed against the naive O(N²) reference
sweeps (``tests/net/reference.py``) and against the cached fast paths;
the cached side plans its paths through :class:`RoutingTable`, the
one flat planner.

The speedup floor (5x full, 3x quick) lives in
``benchmarks/baselines/micro_net[_quick].json`` and is enforced by the
shared ``gate_against_baseline`` mechanism (``repro.obs.diff``) — the
same comparison CI re-runs as ``python -m repro compare --fail-on
regress``.
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.net import (
    Area,
    Network,
    NetworkNode,
    Position,
    RoutingTable,
    WIFI_ADHOC,
    grid_positions,
)
from repro.sim import Environment
from tests.net import reference as ref

from _common import gate_against_baseline, quick, write_report_data

NODES = 200
AREA = Area(1500.0, 1500.0)
MOVERS_PER_ROUND = 20
PATHS_PER_SWEEP = 20


def _build_network() -> Network:
    env = Environment()
    network = Network(env)
    for index, position in enumerate(grid_positions(NODES, AREA, margin=50.0)):
        network.add_node(
            NetworkNode(
                env, f"n{index}", position, technologies=[WIFI_ADHOC]
            )
        )
    return network


def _movement_script(rounds: int):
    """Deterministic per-round moves: (node id, new position)."""
    rng = random.Random(42)
    script = []
    for _round in range(rounds):
        moves = []
        for _mover in range(MOVERS_PER_ROUND):
            node_id = f"n{rng.randrange(NODES)}"
            moves.append(
                (node_id, Position(rng.uniform(0, 1500), rng.uniform(0, 1500)))
            )
        script.append(moves)
    return script


def _path_pairs():
    rng = random.Random(7)
    return [
        (f"n{rng.randrange(NODES)}", f"n{rng.randrange(NODES)}")
        for _ in range(PATHS_PER_SWEEP)
    ]


def _run_naive(script, pairs, sweeps: int) -> float:
    network = _build_network()
    nodes = list(network.nodes.values())
    started = perf_counter()
    for moves in script:
        for node_id, position in moves:
            network.nodes[node_id].move_to(position)
        for _sweep in range(sweeps):
            ref.naive_adjacency(network, adhoc_only=True)
            for node in nodes:
                ref.naive_neighbors(network, node)
            for source_id, target_id in pairs:
                ref.naive_shortest_path(
                    network, source_id, target_id, adhoc_only=True
                )
    return perf_counter() - started


def _run_cached(script, pairs, sweeps: int):
    network = _build_network()
    table = RoutingTable(network, adhoc_only=True)
    nodes = list(network.nodes.values())
    started = perf_counter()
    for moves in script:
        for node_id, position in moves:
            network.nodes[node_id].move_to(position)
        for _sweep in range(sweeps):
            network.adjacency(adhoc_only=True)
            for node in nodes:
                network.neighbors(node)
            for source_id, target_id in pairs:
                table.path(source_id, target_id)
    return perf_counter() - started, network


def test_topology_query_speedup(benchmark):
    """Cached adjacency+neighbors+paths must beat the naive sweep.

    The floor (5x full, 3x in --quick runs where shorter scripts mean
    more timing noise) is the checked-in baseline document; the gate is
    the shared report diff, not a hand-rolled assert.
    """
    rounds = 2 if quick() else 3
    sweeps = 2 if quick() else 3
    script = _movement_script(rounds)
    pairs = _path_pairs()

    naive_seconds = _run_naive(script, pairs, sweeps)
    cached_seconds, network = _run_cached(script, pairs, sweeps)

    # Spot-check coherence right where the speed is measured: the cached
    # answers at the final topology must equal a fresh naive recompute.
    sample = list(network.nodes.values())[:10]
    for node in sample:
        assert [n.id for n in network.neighbors(node)] == [
            n.id for n in ref.naive_neighbors(network, node)
        ]
    got = network.adjacency(adhoc_only=True)
    expected = ref.naive_adjacency(network, adhoc_only=True)
    assert {k: set(v) for k, v in got.items()} == expected

    speedup = naive_seconds / cached_seconds
    print(
        f"\ntopology queries ({NODES} nodes, {rounds} rounds x {sweeps} "
        f"sweeps): naive {naive_seconds:.3f}s vs cached "
        f"{cached_seconds:.3f}s ({speedup:.1f}x)"
    )
    info = network.cache_info()
    path = write_report_data(
        "micro_net",
        metrics={
            "nodes": float(NODES),
            "rounds": float(rounds),
            "sweeps_per_round": float(sweeps),
            "naive_seconds": naive_seconds,
            "cached_seconds": cached_seconds,
            "speedup": speedup,
            "topo.epoch": info["epoch"],
            "topo.hits": info["hits"],
            "topo.misses": info["misses"],
            "topo.invalidations": info["invalidations"],
            "topo.grid_cell_m": info["grid_cell_m"],
        },
        params={"quick": quick()},
    )
    gate_against_baseline("micro_net", path)
    benchmark(lambda: _run_cached(script, pairs, sweeps))


def test_routing_table_skips_bfs(benchmark):
    """Repeated sends between fixed endpoints reuse the memoised tree."""
    network = _build_network()
    table = RoutingTable(network, adhoc_only=True)
    pairs = _path_pairs()
    repeats = 20 if quick() else 50

    def route_repeatedly():
        total_hops = 0
        for _repeat in range(repeats):
            for source_id, target_id in pairs:
                path = table.path(source_id, target_id)
                if path is not None:
                    total_hops += len(path) - 1
        return total_hops

    route_repeatedly()  # warm the trees once
    assert table.stats["misses"] <= len({s for s, _ in pairs})
    hits_before = table.stats["hits"]
    benchmark(route_repeatedly)
    assert table.stats["hits"] > hits_before
    # Stable topology: every re-plan after warmup is a tree hit.
    for source_id, target_id in pairs:
        assert table.path(source_id, target_id) == ref.naive_shortest_path(
            network, source_id, target_id, adhoc_only=True
        )
