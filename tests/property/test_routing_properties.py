"""Property tests for the city-scale routing fabric.

Three invariants, each asserted over hundreds of generated topologies
and mutation interleavings (the strategies mirror
test_topology_cache_properties so the same world shapes are covered):

(a) a *long-lived* :class:`RoutingTable` — whose trees any topology
    epoch bump flushes — answers bit-identically to a fresh flat BFS
    over the naive reference adjacency, after every mutation;
(b) :class:`HierarchicalRouter` reachability equals the naive
    reference reachability (positives are real, validated paths;
    negatives only come from the flat fallback), again across mutations with its path cache live;
(c) every hierarchical path respects the documented stretch bound
    ``hops ≤ STRETCH × flat_hops + 2``, and so does every message a
    source-routing :class:`Router` delivers over it: on a static world
    the delivered hop count is the source plan's length minus one;
(d) on random-waypoint meshes above ``flat_threshold``, the corridor
    walk's paths and ladder stats are the same whether ``neighbors``
    answers by the link-free distance test or by the naive link sweep;
(e) the lazy corridor walk, which tests links itself and ranks only
    the nearest cells of each expansion, returns exactly the path (or
    None) of the walk that asks ``neighbors`` and fully sorts every
    neighbourhood it expands, on holed lattices, scattered worlds and
    worlds with mixed radios, down nodes, disabled Wi-Fi and an
    asymmetric link filter, under tight hop limits;
(f) the planner contract :class:`Router` relies on to skip link checks
    while the topology epoch stands still: every hop of a route either
    planner returns, with ``adhoc_only`` true or false and under an
    asymmetric link filter, passes ``Router._link_up`` at the epoch the
    route was returned, across mutations with every cache live;
(g) the corridor map the walk reads is the one-ring dilation of the
    straight cell walk, each cell mapped to its cells to go.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.net import (
    Area,
    BLUETOOTH,
    GPRS,
    HierarchicalRouter,
    Message,
    Network,
    NetworkNode,
    Position,
    RandomWaypoint,
    Router,
    RoutingTable,
    Transport,
    WIFI_ADHOC,
    WIFI_INFRA,
)
from repro.net.routing import STRETCH
from repro.sim import Environment, RandomStreams
from tests.net import reference as ref

TECH_SETS = [
    [WIFI_ADHOC],
    [BLUETOOTH],
    [WIFI_ADHOC, BLUETOOTH],
    [GPRS],
    [WIFI_ADHOC, GPRS],
    [WIFI_INFRA],
    [WIFI_ADHOC, WIFI_INFRA],
]

coordinate = st.floats(0, 400)

#: (x, y, tech-set index, fixed, attach-infra)
node_spec = st.tuples(
    coordinate,
    coordinate,
    st.integers(0, len(TECH_SETS) - 1),
    st.booleans(),
    st.booleans(),
)

operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 9), coordinate, coordinate),
    st.tuples(st.just("crash"), st.integers(0, 9)),
    st.tuples(st.just("restart"), st.integers(0, 9)),
    st.tuples(st.just("toggle"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("add"), node_spec),
)

programs = st.tuples(
    st.lists(node_spec, min_size=2, max_size=5),
    st.lists(operation, min_size=1, max_size=6),
)


def _make_node(env, network, index, spec):
    x, y, tech_index, fixed, attach = spec
    node = NetworkNode(
        env,
        f"n{index}",
        Position(x, y),
        technologies=TECH_SETS[tech_index],
        fixed=fixed,
    )
    network.add_node(node)
    if attach:
        for interface in node.interfaces.values():
            if interface.technology.infrastructure:
                interface.attach()
    return node


def _build(specs):
    env = Environment()
    network = Network(env)
    nodes = [
        _make_node(env, network, index, spec)
        for index, spec in enumerate(specs)
    ]
    return env, network, nodes


def _apply(env, network, nodes, op):
    kind = op[0]
    if kind == "add":
        nodes.append(_make_node(env, network, len(nodes), op[1]))
        return
    node = nodes[op[1] % len(nodes)]
    if kind == "move":
        node.move_to(Position(op[2], op[3]))
    elif kind == "crash":
        node.crash()
    elif kind == "restart":
        node.restart()
    elif kind == "toggle":
        interfaces = list(node.interfaces.values())
        interface = interfaces[op[2] % len(interfaces)]
        if interface.enabled:
            interface.disable()
        else:
            interface.enable()


class TestRoutingTableBitIdentity:
    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_flushed_trees_match_bfs(self, program):
        """(a): the long-lived table equals the naive reference always."""
        specs, operations = program
        env, network, nodes = _build(specs)
        table = RoutingTable(network, adhoc_only=True)
        backbone_table = RoutingTable(network, adhoc_only=False)

        def check():
            for a in nodes:
                for b in nodes:
                    assert table.path(a.id, b.id) == ref.naive_shortest_path(
                        network, a.id, b.id, adhoc_only=True
                    )
                    assert backbone_table.path(
                        a.id, b.id
                    ) == ref.naive_shortest_path(
                        network, a.id, b.id, adhoc_only=False
                    )

        check()  # populate the trees, then mutate under them
        for op in operations:
            _apply(env, network, nodes, op)
            check()


class TestHierarchicalRouterProperties:
    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_reachability_matches_reference(self, program):
        """(b): hier finds a valid path exactly when the reference does."""
        specs, operations = program
        env, network, nodes = _build(specs)
        router = HierarchicalRouter(network, flat_threshold=0)

        def check():
            graph = ref.naive_adjacency(network, adhoc_only=True)
            for a in nodes:
                for b in nodes:
                    path = router.path(a.id, b.id)
                    reachable = (
                        ref.naive_shortest_path(
                            network, a.id, b.id, adhoc_only=True
                        )
                        is not None
                    )
                    assert (path is not None) == reachable
                    if path is not None and a.id != b.id:
                        # The path is real: endpoints right, every hop
                        # a live edge, no repeated nodes.
                        assert path[0] == a.id and path[-1] == b.id
                        assert len(set(path)) == len(path)
                        for current, following in zip(path, path[1:]):
                            assert following in graph[current]

        check()  # populate the path cache, then mutate under it
        for op in operations:
            _apply(env, network, nodes, op)
            check()

    @given(st.lists(node_spec, min_size=2, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_stretch_bound_holds(self, specs):
        """(c): hier paths are at most STRETCH x flat + 2 hops long."""
        env, network, nodes = _build(specs)
        router = HierarchicalRouter(network, flat_threshold=0)
        for a in nodes:
            for b in nodes:
                flat = ref.naive_shortest_path(
                    network, a.id, b.id, adhoc_only=True
                )
                hier = router.path(a.id, b.id)
                if flat is None:
                    assert hier is None
                    continue
                assert hier is not None
                assert len(hier) - 1 <= STRETCH * (len(flat) - 1) + 2

    @given(st.lists(node_spec, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_delivered_hops_follow_the_source_plan(self, specs):
        """(c) end to end: one plan per message, delivered as planned."""
        env, network, nodes = _build(specs)
        planner = HierarchicalRouter(network, flat_threshold=0)
        plans = []

        class Recording:
            def path(self, source_id, target_id):
                path = planner.path(source_id, target_id)
                plans.append(path)
                return path

        transport = Transport(env, network, RandomStreams(0))
        transport._rng.random = lambda: 0.99  # deterministic: no loss
        router = Router(env, network, transport, table=Recording())
        for a in nodes:
            for b in nodes:
                flat = ref.naive_shortest_path(
                    network, a.id, b.id, adhoc_only=True
                )
                if a.id == b.id or flat is None:
                    continue
                del plans[:]
                process = router.send_multihop(Message(a.id, b.id, "probe"))
                hops = env.run(until=process)
                assert len(plans) == 1
                assert hops == len(plans[0]) - 1
                assert hops <= STRETCH * (len(flat) - 1) + 2


#: Directed (sender index, receiver index) pairs a link filter severs;
#: a pair is mostly banned one way only, so the filter is asymmetric.
banned_pairs = st.sets(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=16
)


class TestPlannerContract:
    @given(programs, banned_pairs)
    @settings(max_examples=150, deadline=None)
    def test_every_hop_of_a_returned_route_has_a_link(self, program, banned):
        """(f): a route's every hop has a link at the epoch it was
        returned, for both planners, both ``adhoc_only`` values, under
        an asymmetric link filter, with the caches live."""
        specs, operations = program
        env, network, nodes = _build(specs)
        network.set_link_filter(
            lambda a, b: (int(a[1:]), int(b[1:])) not in banned
        )
        transport = Transport(env, network, RandomStreams(0))
        checks = []
        for adhoc_only in (True, False):
            router = Router(env, network, transport, adhoc_only=adhoc_only)
            for planner in (
                RoutingTable(network, adhoc_only=adhoc_only),
                HierarchicalRouter(
                    network, adhoc_only=adhoc_only, flat_threshold=0
                ),
            ):
                checks.append((planner, router))

        def check():
            for planner, router in checks:
                for a in nodes:
                    for b in nodes:
                        epoch = network.topology_epoch
                        route = planner.path(a.id, b.id)
                        if route is None:
                            continue
                        assert route[0] == a.id and route[-1] == b.id
                        for sender, receiver in zip(route, route[1:]):
                            assert router._link_up(sender, receiver)
                        assert network.topology_epoch == epoch

        check()  # populate the trees and the path cache, then mutate
        for op in operations:
            _apply(env, network, nodes, op)
            check()


class NaiveNeighborsNetwork(Network):
    """A network answering every ``neighbors`` query (and so every
    adjacency snapshot) through the naive full sweep."""

    def neighbors(self, node, technology=None):
        return tuple(ref.naive_neighbors(self, node, technology))


def _waypoint_mesh(network_class, seed, count, side):
    """``count`` Wi-Fi nodes at seeded positions in a ``side`` metre
    square, walking under the random-waypoint model."""
    env = Environment()
    network = network_class(env)
    streams = RandomStreams(seed)
    placement = streams.stream("placement")
    area = Area(side, side)
    nodes = [
        network.add_node(
            NetworkNode(
                env,
                f"n{index}",
                area.random_position(placement),
                technologies=[WIFI_ADHOC],
            )
        )
        for index in range(count)
    ]
    RandomWaypoint(env, nodes, area, streams, speed_range=(1.0, 8.0))
    return env, network


class TestLinkFreeNeighbours:
    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(260, 320),
        side=st.floats(500.0, 1100.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_corridor_plans_match_a_naive_neighbour_oracle(
        self, seed, count, side
    ):
        """(d): above ``flat_threshold`` the corridor walk plans the
        same paths, with the same ladder stats, whether ``neighbors``
        is the link-free distance test or the naive link sweep."""
        worlds = [
            _waypoint_mesh(network_class, seed, count, side)
            for network_class in (Network, NaiveNeighborsNetwork)
        ]
        planners = [HierarchicalRouter(network) for _, network in worlds]
        assert count > planners[0].flat_threshold
        pick = random.Random(seed)
        pairs = [
            (f"n{a}", f"n{b}")
            for a, b in (pick.sample(range(count), 2) for _ in range(6))
        ]
        for tick in range(1, 4):
            paths = []
            for (env, _network), planner in zip(worlds, planners):
                env.run(until=float(tick))
                paths.append([planner.path(a, b) for a, b in pairs])
            assert paths[0] == paths[1]
            assert planners[0].stats == planners[1].stats


def sorted_walk(router, source_id, target_id, corridor, goal_cell, hop_limit,
                counts=None):
    """The exact-path oracle of the corridor walk: every expansion asks
    ``Network.neighbors``, ranks each unvisited in-corridor neighbour
    through ``SpatialGrid.cell_of`` and ``Position.distance_to`` and
    sorts the lot.  ``counts`` (a Counter) tallies backtracks and
    expansions."""
    network = router.network
    grid = network.grid
    nodes = network.nodes
    goal_position = grid.position_of(target_id)
    counts = Counter() if counts is None else counts

    def children_of(node_id):
        counts["expansions"] += 1
        ranked = []
        for peer in network.neighbors(nodes[node_id]):
            peer_id = peer.id
            if peer_id == target_id:
                return True, []
            if peer_id in seen:
                continue
            position = grid.position_of(peer_id)
            cell = grid.cell_of(position)
            if cell not in corridor:
                continue
            ranked.append(
                (
                    max(
                        abs(cell[0] - goal_cell[0]),
                        abs(cell[1] - goal_cell[1]),
                    ),
                    position.distance_to(goal_position),
                    peer_id,
                )
            )
        ranked.sort(reverse=True)
        return False, [peer_id for _, _, peer_id in ranked]

    seen = {source_id}
    path = [source_id]
    adjacent, candidates = children_of(source_id)
    if adjacent:
        return [source_id, target_id]
    stack = [candidates]
    while stack:
        if not stack[-1] or len(path) >= hop_limit:
            counts["backtracks"] += 1
            stack.pop()
            path.pop()
            continue
        node_id = stack[-1].pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        path.append(node_id)
        adjacent, candidates = children_of(node_id)
        if adjacent:
            path.append(target_id)
            return path
        stack.append(candidates)
    return None


def _holed_lattice(side, spacing, holes, jitter, seed):
    """A ``side`` x ``side`` Wi-Fi lattice, jittered by up to ``jitter``
    metres, with the nodes at ``holes`` (indices mod side²) left out."""
    env = Environment()
    network = Network(env)
    rng = random.Random(seed)
    missing = {hole % (side * side) for hole in holes}
    for index in range(side * side):
        row, col = divmod(index, side)
        x = col * spacing + rng.uniform(-jitter, jitter)
        y = row * spacing + rng.uniform(-jitter, jitter)
        if index in missing:
            continue
        network.add_node(
            NetworkNode(
                env, f"n{index}", Position(x, y), technologies=[WIFI_ADHOC]
            )
        )
    return network


def _scattered(points):
    env = Environment()
    network = Network(env)
    for index, (x, y) in enumerate(points):
        network.add_node(
            NetworkNode(
                env, f"n{index}", Position(x, y), technologies=[WIFI_ADHOC]
            )
        )
    return network


#: Radio sets of the mixed worlds; a link needs a shared radio in range
#: (Wi-Fi 100 m, Bluetooth 10 m).
MIXED_RADIOS = [
    [WIFI_ADHOC],
    [BLUETOOTH],
    [WIFI_ADHOC, BLUETOOTH],
    [WIFI_ADHOC, BLUETOOTH],
]


def _banned(sender_id, receiver_id):
    """An asymmetric ban: (a, b) is refused iff 31a + 17b ≡ 0 (mod 7)."""
    return (31 * int(sender_id[1:]) + 17 * int(receiver_id[1:])) % 7 == 0


def _mixed_world(seed, count):
    """``count`` nodes over a 340 m square, each with Wi-Fi, Bluetooth or
    both; two in five sit within Bluetooth range of an earlier node.
    About one node in eight is down, one in six of the rest has its
    Wi-Fi disabled, and the link filter refuses the :func:`_banned`
    ordered pairs."""
    env = Environment()
    network = Network(env)
    rng = random.Random(seed)
    placed = []
    for index in range(count):
        if placed and rng.random() < 0.4:
            x, y = rng.choice(placed)
            position = Position(x + rng.uniform(-7.0, 7.0),
                                y + rng.uniform(-7.0, 7.0))
        else:
            position = Position(rng.uniform(-20.0, 320.0),
                                rng.uniform(-20.0, 320.0))
        placed.append((position.x, position.y))
        node = network.add_node(
            NetworkNode(env, f"n{index}", position,
                        technologies=rng.choice(MIXED_RADIOS))
        )
        if rng.random() < 0.125:
            node.crash()
        elif WIFI_ADHOC.name in node.interfaces and rng.random() < 1 / 6:
            node.interface(WIFI_ADHOC.name).disable()
    network.set_link_filter(lambda a, b: not _banned(a, b))
    return network


def _compare_walks(network, seed, pair_count, counts):
    """Walk ``pair_count`` seeded pairs with both walks, at the router's
    own hop limit and at a tight one; assert identical answers."""
    router = HierarchicalRouter(network, flat_threshold=0)
    grid = network.grid
    nodes = network.nodes
    ids = sorted(nodes)
    pick = random.Random(seed)
    for _ in range(pair_count):
        source_id, target_id = pick.sample(ids, 2)
        s_cell = grid.cell_of(grid.position_of(source_id))
        t_cell = grid.cell_of(grid.position_of(target_id))
        cells = max(abs(s_cell[0] - t_cell[0]), abs(s_cell[1] - t_cell[1]))
        corridor = router._straight_corridor(s_cell, t_cell)
        for hop_limit in (
            STRETCH * max(cells, 1) + 2,
            max(cells, 1) + 1,
            2,
        ):
            expected = sorted_walk(
                router, source_id, target_id, corridor, t_cell, hop_limit,
                counts,
            )
            walked = router._greedy_corridor(
                source_id, target_id, corridor, hop_limit
            )
            assert walked == expected
            counts["found" if expected is not None else "missed"] += 1
            counts["down_endpoints"] += not (
                nodes[source_id].up and nodes[target_id].up
            )
            for a, b in zip(expected or (), (expected or ())[1:]):
                links = network.links_between(nodes[a], nodes[b])
                counts["bluetooth_hops"] += all(
                    link.sender_technology is BLUETOOTH for link in links
                )


class TestExactCorridorPaths:
    @given(
        side=st.integers(4, 11),
        spacing=st.floats(55.0, 99.0),
        holes=st.sets(st.integers(0, 120), max_size=45),
        jitter=st.floats(0.0, 25.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_holed_lattices(self, side, spacing, holes, jitter, seed):
        """(e) on lattices whose holes make dead ends and corridor
        edges."""
        network = _holed_lattice(side, spacing, holes, jitter, seed)
        if len(network) >= 2:
            _compare_walks(network, seed, 8, Counter())

    @given(
        points=st.lists(
            st.tuples(st.floats(-50.0, 650.0), st.floats(-50.0, 650.0)),
            min_size=2,
            max_size=60,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_scattered_worlds(self, points, seed):
        """(e) on scattered points, negative coordinates included."""
        _compare_walks(_scattered(points), seed, 8, Counter())

    @given(seed=st.integers(0, 2**16), count=st.integers(2, 60))
    @settings(max_examples=150, deadline=None)
    def test_mixed_radios_filters_and_churn(self, seed, count):
        """(e) where the walk tests links itself: an asymmetric link
        filter, down nodes (endpoints included), disabled Wi-Fi, and
        Wi-Fi and Bluetooth radios of different ranges."""
        _compare_walks(_mixed_world(seed, count), seed, 8, Counter())

    def test_seeded_mixed_worlds_exercise_every_branch(self):
        """(e) on mixed worlds is not vacuous: the filter refuses pairs
        in range, walks start at or aim for down nodes, and found paths
        take Bluetooth-only hops, with identical answers throughout."""
        counts = Counter()
        for seed in range(40):
            network = _mixed_world(seed, 30 + seed)
            _compare_walks(network, seed, 10, counts)
            nodes = list(network.nodes.values())
            counts["down"] += sum(not node.up for node in nodes)
            counts["wifi_off"] += sum(
                node.up and not node.interfaces[WIFI_ADHOC.name].enabled
                for node in nodes
                if WIFI_ADHOC.name in node.interfaces
            )
            network.set_link_filter(None)
            for node in nodes:
                for peer in network.neighbors(node):
                    counts["filtered"] += _banned(node.id, peer.id)
        assert counts["found"] > 200
        assert counts["missed"] > 500
        assert counts["backtracks"] > 1000
        assert counts["bluetooth_hops"] > 30
        assert counts["down_endpoints"] > 100
        assert counts["down"] > 100
        assert counts["wifi_off"] > 100
        assert counts["filtered"] > 500

    def test_seeded_lattices_backtrack_and_miss(self):
        """(e) is not vacuous: over seeded holed lattices the walks
        backtrack out of dead ends, exhaust corridors and hop limits,
        and still find paths, with identical answers throughout."""
        counts = Counter()
        rng = random.Random(5)
        for seed in range(30):
            side = rng.randint(6, 11)
            holes = set(rng.sample(range(side * side), side * side // 4))
            network = _holed_lattice(side, rng.uniform(60.0, 95.0), holes,
                                     rng.uniform(0.0, 20.0), seed)
            _compare_walks(network, seed, 10, counts)
        assert counts["backtracks"] > 100
        assert counts["found"] > 100
        assert counts["missed"] > 100


def _dilated_walk(start, goal):
    """The straight cell walk start→goal, one diagonal or axis step at
    a time, dilated by one ring."""
    walk = [start]
    while walk[-1] != goal:
        (cx, cy), (gx, gy) = walk[-1], goal
        walk.append(
            (cx + (gx > cx) - (gx < cx), cy + (gy > cy) - (gy < cy))
        )
    return {
        (wx + dx, wy + dy)
        for wx, wy in walk
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    }


cell = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
#: Goal offsets from the start: none, along one axis, on a diagonal,
#: or anywhere.
goal_offset = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(-12, 12), st.just(0)),
    st.tuples(st.just(0), st.integers(-12, 12)),
    st.integers(-12, 12).flatmap(
        lambda d: st.sampled_from([(d, d), (d, -d)])
    ),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
)


class TestCorridorMap:
    @given(start=cell, offset=goal_offset)
    @settings(max_examples=300, deadline=None)
    def test_keys_are_the_dilated_walk_and_values_the_cells_to_go(
        self, start, offset
    ):
        """(g) ``_straight_corridor`` maps exactly the one-ring dilation
        of the straight walk, each cell to its Chebyshev cells to go."""
        goal = (start[0] + offset[0], start[1] + offset[1])
        router = HierarchicalRouter(Network(Environment()))
        corridor = router._straight_corridor(start, goal)
        assert set(corridor) == _dilated_walk(start, goal)
        for (x, y), to_go in corridor.items():
            assert to_go == max(abs(x - goal[0]), abs(y - goal[1]))
        assert corridor[start] == max(abs(offset[0]), abs(offset[1]))
