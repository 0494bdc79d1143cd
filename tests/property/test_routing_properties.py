"""Property tests for the city-scale routing fabric.

Three invariants, each asserted over hundreds of generated topologies
and mutation interleavings (the strategies mirror
test_topology_cache_properties so the same world shapes are covered):

(a) a *long-lived* :class:`RoutingTable` — whose trees any topology
    epoch bump flushes — answers bit-identically to a fresh flat BFS
    over the naive reference adjacency, after every mutation;
(b) :class:`HierarchicalRouter` reachability equals the naive
    reference reachability (positives are real, validated paths;
    negatives only come from the exact coarse-cell certificate or the
    flat fallback), again across mutations with its path cache live;
(c) every hierarchical path respects the documented stretch bound
    ``hops ≤ stretch × flat_hops + 2``, and so does every message a
    source-routing :class:`Router` delivers over it: on a static world
    the delivered hop count is the source plan's length minus one;
(d) on random-waypoint meshes above ``flat_threshold``, the corridor
    walk's paths and ladder stats are the same whether ``neighbors``
    answers by the link-free distance test or by the naive link sweep.
"""

import random

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
        """(c): hier paths are at most stretch x flat + 2 hops long."""
        env, network, nodes = _build(specs)
        router = HierarchicalRouter(network, flat_threshold=0)
        stretch = router.stretch
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
                assert len(hier) - 1 <= stretch * (len(flat) - 1) + 2

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
                assert hops <= planner.stretch * (len(flat) - 1) + 2


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
