"""Work-count gates for the corridor walk on a routed mesh.

Exact counts, not timings.  :class:`HierarchicalRouter`'s corridor walk
asks no neighbour list of :meth:`Network.neighbors`: each expansion
takes the in-corridor grid cells around its node and tests candidates
with the ad-hoc link predicate, :meth:`Network.adhoc_peers`, which
decides adjacency with a distance test on ids and positions.  So
planning paths must build no :class:`Link` at all
(``Network._compute_links`` is never called), however many re-plans
the moves cause.  Links are built only for legs that are sent.

The walk is lazy: an expansion tests and ranks only the nearest
not-yet-exhausted group of cells (by cells to go), and opens the next
group only when the walk backtracks into it.  The pinned per-plan
counts below grow if an expansion ranks its whole neighbourhood, and no
plan may rank more peers than the eager walk (which ranked every
in-corridor peer once per plan) did.

Moves and plans pay their fixed work once: a move computes one grid
cell (``SpatialGrid.cell_of``), its new one, because the grid stores
each node's cell; a plan computes none, reading the cells of its
endpoints and of the path it remembers from the grid; and each missed
plan builds its corridor map once.  A move stamps only the cells it
touched: one stamp for a move inside a cell, two for a cell-crossing
one.
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
    # The moves really made the router plan again, and the walk asked
    # for no neighbour list.
    assert router.stats["misses"] > 2 * PAIRS
    assert network.cache_stats["misses"] == misses
    assert router.stats["greedy"] > 0
    assert router.stats["flat"] == 0


#: Per plan, for the 12 seeded pairs on a fresh lattice: (path length,
#: expansions, candidates tested against the link predicate, peers
#: ranked).  The walk never backtracks here, so it expands every path
#: node but the target; an expansion is one
#: :meth:`Network.adhoc_radios` call, a ranking one ``hypot`` call.  No
#: plan calls ``SpatialGrid.cell_of``: the endpoints' and the
#: remembered path's cells come from the grid index.
PLAN_WORK = [
    (4, 3, 16, 7),
    (12, 11, 93, 36),
    (5, 4, 19, 10),
    (4, 3, 20, 8),
    (2, 1, 1, 0),
    (9, 8, 38, 16),
    (8, 7, 56, 22),
    (5, 4, 26, 11),
    (11, 10, 79, 33),
    (15, 14, 99, 47),
    (13, 12, 81, 39),
    (7, 6, 36, 17),
]

#: Peers the eager walk ranked for the same plans: every in-corridor
#: neighbour of every expanded node, once per plan.
EAGER_RANKED = [13, 37, 18, 11, 0, 17, 29, 16, 33, 48, 48, 28]


def test_corridor_walk_ranks_only_the_nearest_cells(monkeypatch):
    network, nodes = build_lattice()
    router = HierarchicalRouter(network)
    rng = random.Random(11)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(PAIRS)]
    calls = {"expansions": 0, "tested": 0, "hypot": 0, "cell_of": 0}
    hypot = routing.hypot
    adhoc_radios, adhoc_peers = Network.adhoc_radios, Network.adhoc_peers
    cell_of = SpatialGrid.cell_of

    def counting_hypot(dx, dy):
        calls["hypot"] += 1
        return hypot(dx, dy)

    def counting_adhoc_radios(self, node, technology=None):
        calls["expansions"] += 1
        return adhoc_radios(self, node, technology)

    def counting_adhoc_peers(self, node, radios, candidate_ids):
        calls["tested"] += len(candidate_ids)
        return adhoc_peers(self, node, radios, candidate_ids)

    def failing_neighbors(self, node, technology=None):
        raise AssertionError("the corridor walk asked for a neighbour list")

    def counting_cell_of(self, position):
        calls["cell_of"] += 1
        return cell_of(self, position)

    monkeypatch.setattr(routing, "hypot", counting_hypot)
    monkeypatch.setattr(Network, "adhoc_radios", counting_adhoc_radios)
    monkeypatch.setattr(Network, "adhoc_peers", counting_adhoc_peers)
    monkeypatch.setattr(Network, "neighbors", failing_neighbors)
    monkeypatch.setattr(SpatialGrid, "cell_of", counting_cell_of)
    work = []
    for source, target in pairs:
        before = dict(calls)
        path = router.path(source.id, target.id)
        spent = {key: calls[key] - before[key] for key in calls}
        work.append(
            (
                len(path),
                spent["expansions"],
                spent["tested"],
                spent["hypot"],
            )
        )
    monkeypatch.undo()
    assert work == PLAN_WORK
    assert calls["cell_of"] == 0
    assert router.stats["greedy"] == PAIRS
    for (_, _, _, ranked), eager in zip(work, EAGER_RANKED):
        assert ranked <= eager


def test_moves_and_missed_plans_pay_their_fixed_work_once(monkeypatch):
    """A move computes one cell (its new one); a plan computes none, as
    do epoch bumps that are no move and revalidated cache entries; and
    each missed plan builds its corridor once, a hit none."""
    network, nodes = build_lattice()
    router = HierarchicalRouter(network)
    rng = random.Random(5)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(PAIRS)]
    # One node far off the lattice: its plans miss the walk and pay
    # the flat fallback.
    hermit = network.add_node(
        NetworkNode(
            nodes[0].env,
            "hermit",
            Position(-900.0, -900.0),
            technologies=[WIFI_ADHOC],
        )
    )
    pairs.append((nodes[0], hermit))
    calls = {"cell_of": 0, "corridors": 0}
    cell_of = SpatialGrid.cell_of
    straight_corridor = HierarchicalRouter._straight_corridor

    def counting_cell_of(self, position):
        calls["cell_of"] += 1
        return cell_of(self, position)

    def counting_straight_corridor(self, start, goal):
        calls["corridors"] += 1
        return straight_corridor(self, start, goal)

    monkeypatch.setattr(SpatialGrid, "cell_of", counting_cell_of)
    monkeypatch.setattr(
        HierarchicalRouter, "_straight_corridor", counting_straight_corridor
    )
    crossed = 0
    for _ in range(ROUNDS):
        movers = rng.sample(nodes, len(nodes) // 10)
        before = calls["cell_of"]
        for node in movers:
            cell = network.grid.item_cell(node.id)
            # Half the moves jump a whole cell (100 m) to the east.
            step = 100.0 if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)
            node.move_to(Position(node.position.x + step, node.position.y))
            crossed += network.grid.item_cell(node.id) != cell
        assert calls["cell_of"] - before == len(movers)
        # Bumps that move nobody compute no cell.
        before = calls["cell_of"]
        movers[0].crash()
        movers[0].restart()
        assert calls["cell_of"] == before
        misses = router.stats["misses"]
        corridors = calls["corridors"]
        for source, target in pairs:
            router.path(source.id, target.id)
        missed = router.stats["misses"] - misses
        assert missed > 0
        assert calls["corridors"] - corridors == missed
        # Cached paths the moves left alone cost no corridor.
        corridors = calls["corridors"]
        for source, target in pairs:
            router.path(source.id, target.id)
        assert calls["corridors"] == corridors
        # Links cached before the next round's moves are revalidated
        # against the stored cells.
        for source, target in pairs[:4]:
            network.links_between(source, target)
        assert calls["cell_of"] == before
    monkeypatch.undo()
    assert crossed > 0
    assert router.stats["flat_fallback"] > 0
    assert network.cache_stats["revalidations"] > 0


def test_a_move_stamps_only_the_cells_it_touched():
    """A same-cell move writes exactly one stamp entry, a cell-crossing
    move exactly two, summed over every stamp map of the network."""
    network, nodes = build_lattice()
    written = []

    class CountingStamps(dict):
        def __setitem__(self, cell, epoch):
            written.append(cell)
            super().__setitem__(cell, epoch)

    stamp_maps = [name for name in vars(network) if name.endswith("_stamp")]
    assert stamp_maps
    for name in stamp_maps:
        setattr(network, name, CountingStamps(getattr(network, name)))
    rng = random.Random(3)
    crossings = 0
    for node in rng.sample(nodes, 40):
        cell = network.grid.item_cell(node.id)
        # Half the moves jump a whole cell (100 m) to the east.
        step = 100.0 if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)
        written.clear()
        node.move_to(Position(node.position.x + step, node.position.y))
        new_cell = network.grid.item_cell(node.id)
        if new_cell == cell:
            assert written == [cell]
        else:
            crossings += 1
            assert sorted(written) == sorted([cell, new_cell])
    assert 0 < crossings < 40
