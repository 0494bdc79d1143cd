"""Work-count gate for neighbour queries on a corridor-routed mesh.

Exact counts, not timings: ``Network.neighbors`` decides ad-hoc
adjacency with a distance test on ids and positions, so planning paths
through :class:`HierarchicalRouter`'s corridor walk — one
``neighbors`` call per expanded node — must build no :class:`Link` at
all (``Network._compute_links`` is never called), however many
neighbour-cache misses the moves cause.  Links are built only for legs
that are sent.  A per-candidate ``links_between`` inside
``neighbors`` would show up here as over a thousand calls.
"""

import random

from repro.net import (
    HierarchicalRouter,
    Network,
    NetworkNode,
    Position,
    WIFI_ADHOC,
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
