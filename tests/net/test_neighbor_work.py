"""Work-count gate for neighbour queries on a corridor-routed mesh.

Exact counts, not timings: ``Network.neighbors`` decides ad-hoc
adjacency with a distance test on ids and positions, so planning paths
through :class:`HierarchicalRouter`'s corridor walk — one
``neighbors`` call per expanded node — must build no :class:`Link` at
all (``Network._compute_links`` is never called), however many
neighbour-cache misses the moves cause.  Links are built only for legs
that are sent.  A per-candidate ``links_between`` inside
``neighbors`` would show up here as over a thousand calls.

The walk also ranks each peer once per plan, however many of the
nodes it expands see that peer: the pinned ranking counts below grow
if an expansion ranks its neighbourhood again.
"""

import random

from repro.net import (
    HierarchicalRouter,
    Network,
    NetworkNode,
    Position,
    SpatialGrid,
    WIFI_ADHOC,
    routing,
)
from repro.sim import Environment

#: An 18 x 18 lattice, 70 m apart: 324 nodes, above the router's
#: default ``flat_threshold``, each in Wi-Fi range of its 8 lattice
#: neighbours (a diagonal is 99 m).
SIDE = 18
SPACING = 70.0
ROUNDS = 4
PAIRS = 12


def build_lattice():
    env = Environment()
    network = Network(env)
    nodes = [
        network.add_node(
            NetworkNode(
                env,
                f"n{row}-{col}",
                Position(col * SPACING, row * SPACING),
                technologies=[WIFI_ADHOC],
            )
        )
        for row in range(SIDE)
        for col in range(SIDE)
    ]
    return network, nodes


def test_corridor_plans_after_moves_build_no_links(monkeypatch):
    network, nodes = build_lattice()
    router = HierarchicalRouter(network)
    assert len(network) >= 300 > router.flat_threshold
    rng = random.Random(11)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(PAIRS)]
    built = []
    compute_links = Network._compute_links

    def counting_compute_links(self, a, b):
        built.append((a.id, b.id))
        return compute_links(self, a, b)

    monkeypatch.setattr(Network, "_compute_links", counting_compute_links)
    misses = network.cache_stats["misses"]
    for _ in range(ROUNDS):
        # Jitter a tenth of the lattice so cached neighbour lists and
        # paths go stale, as a moving mesh makes them every tick.
        for node in rng.sample(nodes, len(nodes) // 10):
            node.move_to(
                Position(
                    node.position.x + rng.uniform(-5.0, 5.0),
                    node.position.y + rng.uniform(-5.0, 5.0),
                )
            )
        for source, target in pairs:
            assert router.path(source.id, target.id) is not None
    monkeypatch.undo()
    assert built == []
    # The walk really queried neighbours afresh, on the corridor path.
    assert network.cache_stats["misses"] - misses > ROUNDS * PAIRS
    assert router.stats["greedy"] > 0
    assert router.stats["flat"] == 0


#: Per plan, for the 12 seeded pairs on a fresh lattice: (path length,
#: ``neighbors`` calls, peers ranked, ``SpatialGrid.cell_of`` calls).
#: The walk never backtracks here, so it expands every path node but
#: the target; a ranking is two ``floor`` calls (the peer's cell), and
#: ``cell_of`` runs only for the endpoints and the remembered path.
PLAN_WORK = [
    (4, 3, 13, 6),
    (12, 11, 37, 14),
    (5, 4, 18, 7),
    (4, 3, 11, 6),
    (2, 1, 0, 4),
    (9, 8, 17, 11),
    (8, 7, 29, 10),
    (5, 4, 16, 7),
    (11, 10, 33, 13),
    (15, 14, 48, 17),
    (13, 12, 48, 15),
    (7, 6, 28, 9),
]


def test_corridor_walk_ranks_each_peer_once_per_plan(monkeypatch):
    network, nodes = build_lattice()
    router = HierarchicalRouter(network)
    rng = random.Random(11)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(PAIRS)]
    calls = {"floor": 0, "hypot": 0, "neighbors": 0, "cell_of": 0}
    floor, hypot = routing.floor, routing.hypot
    neighbors, cell_of = Network.neighbors, SpatialGrid.cell_of

    def counting_floor(value):
        calls["floor"] += 1
        return floor(value)

    def counting_hypot(dx, dy):
        calls["hypot"] += 1
        return hypot(dx, dy)

    def counting_neighbors(self, node, technology=None):
        calls["neighbors"] += 1
        return neighbors(self, node, technology)

    def counting_cell_of(self, position):
        calls["cell_of"] += 1
        return cell_of(self, position)

    monkeypatch.setattr(routing, "floor", counting_floor)
    monkeypatch.setattr(routing, "hypot", counting_hypot)
    monkeypatch.setattr(Network, "neighbors", counting_neighbors)
    monkeypatch.setattr(SpatialGrid, "cell_of", counting_cell_of)
    work = []
    for source, target in pairs:
        before = dict(calls)
        path = router.path(source.id, target.id)
        spent = {key: calls[key] - before[key] for key in calls}
        # Every ranked peer lies inside this lattice's corridors.
        assert spent["floor"] == 2 * spent["hypot"]
        work.append(
            (len(path), spent["neighbors"], spent["hypot"], spent["cell_of"])
        )
    monkeypatch.undo()
    assert work == PLAN_WORK
    assert router.stats["greedy"] == PAIRS
