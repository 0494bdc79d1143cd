"""Unit tests for the city-scale routing fabric.

Covers the :class:`HierarchicalRouter` planning ladder (flat delegate,
gateway walk, flat fallback), its cell-stamped
path cache, the epoch-flushed :class:`RoutingTable`, epoch bumps on
every real move, the connectivity monitor's same-epoch scan skip, and
same-seed determinism with the hierarchical planner driving a live
Router.
"""

import pytest

from repro.errors import TransportTimeout, Unreachable
from repro.net import (
    ConnectivityMonitor,
    HierarchicalRouter,
    Message,
    Network,
    NetworkNode,
    Position,
    Router,
    RoutingTable,
    Transport,
    WIFI_ADHOC,
)
from repro.sim import Environment, MetricsRegistry, RandomStreams
from tests.net import reference as ref


def adhoc_node(env, node_id, x=0.0, y=0.0):
    return NetworkNode(env, node_id, Position(x, y), technologies=[WIFI_ADHOC])


def make_network():
    env = Environment()
    return env, Network(env)


def flat_path(network, source_id, target_id, adhoc_only=True):
    """The flat planner's answer from a fresh :class:`RoutingTable`."""
    return RoutingTable(network, adhoc_only=adhoc_only).path(
        source_id, target_id
    )


def add_chain(env, network, count, spacing=90.0, prefix="n"):
    return [
        network.add_node(adhoc_node(env, f"{prefix}{i}", spacing * i, 0))
        for i in range(count)
    ]


class TestHierarchicalRouterPlanning:
    def test_small_world_delegates_to_flat(self):
        env, network = make_network()
        add_chain(env, network, 4)
        router = HierarchicalRouter(network)  # default flat_threshold 256
        assert router.path("n0", "n3") == flat_path(network, "n0", "n3")
        assert router.stats["flat"] == 1
        assert router.stats["misses"] == 0

    def test_greedy_walk_finds_chain_path(self):
        env, network = make_network()
        add_chain(env, network, 6)
        router = HierarchicalRouter(network, flat_threshold=0)
        path = router.path("n0", "n5")
        assert path == [f"n{i}" for i in range(6)]
        # The cheap gateway walk resolves a straight chain by itself.
        assert router.stats["greedy"] == 1
        assert router.stats["flat_fallback"] == 0
        # Same answer again, now from the path cache.
        assert router.path("n0", "n5") == path
        assert router.stats["hits"] == 1

    def test_greedy_walk_backtracks_out_of_dead_end(self):
        env, network = make_network()
        # A decoy pocket: from s the decoy looks best (closest to t in
        # metres) but only connects back to s.  The guided walk burns
        # the decoy, backtracks, and takes the arc overhead — no flat
        # BFS needed.
        layout = {
            "s": (0, 0),
            "decoy": (95, 0),
            "a1": (30, 95),
            "a2": (110, 130),
            "a3": (200, 100),
            "a4": (280, 60),
            "t": (290, 20),
        }
        for node_id, (x, y) in layout.items():
            network.add_node(adhoc_node(env, node_id, x, y))
        router = HierarchicalRouter(network, flat_threshold=0)
        path = router.path("s", "t")
        assert path == ["s", "a1", "a2", "a3", "a4", "t"]
        assert router.stats["greedy"] == 1
        assert router.stats["flat_fallback"] == 0

    def test_walk_dead_end_falls_back_to_optimal_flat_path(self):
        env, network = make_network()
        # The only s→t path leaves the straight corridor (cell rows
        # -1..1) through row 2, so the gateway walk dead-ends at a.  The
        # detour is short enough for the stretch bound, but the planner
        # has no corridor rung left: the flat fallback answers, with
        # the optimal path.
        layout = {
            "s": (50, 50),
            "a": (50, 140),
            "b": (50, 230),
            "c": (140, 230),
            "d": (230, 230),
            "e": (250, 140),
            "t": (250, 50),
        }
        for node_id, (x, y) in layout.items():
            network.add_node(adhoc_node(env, node_id, x, y))
        router = HierarchicalRouter(network, flat_threshold=0)
        flat = flat_path(network, "s", "t")
        assert flat == ["s", "a", "b", "c", "d", "e", "t"]
        assert router.path("s", "t") == flat
        assert router.stats["greedy"] == 0
        assert router.stats["flat_fallback"] == 1

    def test_cell_unreachable_is_exact_negative(self):
        env, network = make_network()
        add_chain(env, network, 3)
        # A second island far away: the gateway walk misses, and the
        # flat fallback gives the exact negative answer.
        add_chain(env, network, 3, prefix="far")
        for i in range(3):
            network.node(f"far{i}").move_to(Position(2000 + 90 * i, 0))
        router = HierarchicalRouter(network, flat_threshold=0)
        assert router.path("n0", "far2") is None
        assert router.stats["flat_fallback"] == 1
        assert flat_path(network, "n0", "far2") is None

    def test_detour_world_falls_back_to_flat(self):
        env, network = make_network()
        # Source and target sit in adjacent cells but out of range; the
        # only path climbs two cell rows above the straight corridor, so the
        # planner must fall back to flat BFS — and then return the
        # optimal path (stretch 1 by construction).
        points = {
            "s": (50, 50),
            "a1": (50, 140),
            "a2": (50, 230),
            "a3": (50, 320),
            "top": (105, 320),
            "b3": (160, 320),
            "b2": (160, 230),
            "b1": (160, 140),
            "t": (160, 50),
        }
        for node_id, (x, y) in points.items():
            network.add_node(adhoc_node(env, node_id, x, y))
        router = HierarchicalRouter(network, flat_threshold=0)
        flat = flat_path(network, "s", "t")
        assert flat is not None and len(flat) == 9
        assert router.path("s", "t") == flat
        assert router.stats["flat_fallback"] == 1

    def test_down_endpoints_unroutable(self):
        env, network = make_network()
        nodes = add_chain(env, network, 3)
        router = HierarchicalRouter(network, flat_threshold=0)
        nodes[2].crash()
        assert router.path("n0", "n2") is None
        assert router.path("n2", "n0") is None
        assert router.path("n2", "n2") == ["n2"]


class TestHierarchicalPathCache:
    def test_unrelated_change_keeps_cached_path(self):
        env, network = make_network()
        add_chain(env, network, 5)
        bystander = network.add_node(adhoc_node(env, "by", 0, 2000))
        router = HierarchicalRouter(network, flat_threshold=0)
        path = router.path("n0", "n4")
        assert path is not None
        bystander.move_to(Position(500, 2000))  # cross-cell, far away
        assert router.path("n0", "n4") == path
        assert router.stats["hits"] == 1
        assert router.stats["misses"] == 1

    def test_cached_path_survives_many_far_moves(self):
        # However many bumps land elsewhere, a path whose cells no bump
        # touched is served from the cache, not planned again.
        env, network = make_network()
        add_chain(env, network, 5)
        bystander = network.add_node(adhoc_node(env, "by", 0, 5000))
        router = HierarchicalRouter(network, flat_threshold=0)
        path = router.path("n0", "n4")
        assert path is not None
        for step in range(5000):
            x = 500.0 if step % 2 == 0 else 0.0  # across cells each time
            bystander.move_to(Position(x, 5000))
        assert router.path("n0", "n4") == path
        assert router.stats["hits"] == 1
        assert router.stats["misses"] == 1

    def test_change_on_path_replans(self):
        env, network = make_network()
        nodes = add_chain(env, network, 5)
        router = HierarchicalRouter(network, flat_threshold=0)
        assert router.path("n0", "n4") == [f"n{i}" for i in range(5)]
        nodes[2].crash()
        assert router.path("n0", "n4") is None
        assert flat_path(network, "n0", "n4") is None
        nodes[2].restart()
        assert router.path("n0", "n4") == [f"n{i}" for i in range(5)]

    def test_negative_flushed_when_link_appears(self):
        env, network = make_network()
        add_chain(env, network, 2, spacing=180.0)  # out of range
        router = HierarchicalRouter(network, flat_threshold=0)
        assert router.path("n0", "n1") is None
        bridge = network.add_node(adhoc_node(env, "mid", 90, 0))
        assert router.path("n0", "n1") == ["n0", "mid", "n1"]
        assert bridge is network.node("mid")


class TestRoutingTableRepair:
    """The table no longer repairs trees: any epoch bump flushes it."""

    def test_any_bump_flushes(self):
        env, network = make_network()
        add_chain(env, network, 3)
        far = network.add_node(adhoc_node(env, "far", 5000, 0))
        table = RoutingTable(network)
        assert table.path("n0", "n2") == ["n0", "n1", "n2"]
        bumps = [
            lambda: far.move_to(Position(5500, 0)),  # other component
            lambda: far.crash(),
            lambda: far.restart(),
            lambda: far.interface(WIFI_ADHOC.name).disable(),
            lambda: network.add_node(adhoc_node(env, "late", 9000, 0)),
        ]
        for count, bump in enumerate(bumps, start=1):
            epoch = network.topology_epoch
            bump()
            assert network.topology_epoch > epoch
            assert table.path("n0", "n2") == ["n0", "n1", "n2"]
            assert table.stats == {
                "hits": 0, "misses": count + 1, "flushes": count
            }
        # An unchanged epoch keeps the tree.
        assert table.path("n0", "n1") == ["n0", "n1"]
        assert table.stats["hits"] == 1

    def test_member_change_rebuilds_tree(self):
        env, network = make_network()
        nodes = add_chain(env, network, 4)
        table = RoutingTable(network)
        assert table.path("n0", "n3") == ["n0", "n1", "n2", "n3"]
        nodes[1].crash()
        assert table.path("n0", "n3") is None
        assert table.stats == {"hits": 0, "misses": 2, "flushes": 1}

    def test_node_joining_component_rebuilds_tree(self):
        env, network = make_network()
        add_chain(env, network, 2, spacing=150.0)  # n0 .. n1 unreachable
        joiner = network.add_node(adhoc_node(env, "j", 0, 2000))
        table = RoutingTable(network)
        assert table.path("n0", "n1") is None
        joiner.move_to(Position(75, 0))  # bridges the gap
        assert table.path("n0", "n1") == ["n0", "j", "n1"]
        assert table.stats["flushes"] == 1

    def test_global_change_flushes(self):
        env, network = make_network()
        add_chain(env, network, 3)
        table = RoutingTable(network)
        table.path("n0", "n2")
        network.set_link_filter(lambda a, b: True)
        table.path("n0", "n2")
        assert table.stats["flushes"] == 1

    def test_metrics_published(self):
        env, network = make_network()
        nodes = add_chain(env, network, 3)
        metrics = MetricsRegistry()
        table = RoutingTable(network, metrics=metrics)
        table.path("n0", "n2")
        table.path("n0", "n1")
        nodes[1].crash()
        table.path("n0", "n2")
        snapshot = metrics.snapshot()
        assert snapshot["routing.tree_misses"] == 2.0
        assert snapshot["routing.tree_hits"] == 1.0
        assert snapshot["routing.flushes"] == 1.0


class TestAdjacencyDownNodes:
    def test_adjacency_emits_only_up_nodes(self):
        env, network = make_network()
        nodes = add_chain(env, network, 4)
        nodes[1].crash()
        nodes[3].crash()
        graph = network.adjacency()
        assert set(graph) == {"n0", "n2"}
        assert graph["n0"] == ()
        naive = ref.naive_adjacency(network)
        assert set(naive) == {"n0", "n2"}
        assert {k: set(v) for k, v in graph.items()} == naive

    def test_backbone_pairs_are_explicit(self):
        env, network = make_network()
        from repro.net import LAN

        for i in range(6):
            network.add_node(
                NetworkNode(
                    env,
                    f"srv{i}",
                    Position(200.0 * i, 0),
                    technologies=[LAN],
                    fixed=True,
                )
            )
        servers = [f"srv{i}" for i in range(6)]
        graph = network.adjacency()
        # Every pair of LAN servers is written out as a backbone edge.
        for server in servers:
            assert graph[server] == tuple(
                other for other in servers if other != server
            )
        assert flat_path(network, "srv0", "srv5", adhoc_only=False) == [
            "srv0",
            "srv5",
        ]


class TestMoveElision:
    """No move is elided: every real move bumps the epoch."""

    def test_in_cell_move_bumps_epoch(self):
        env, network = make_network()
        a = network.add_node(adhoc_node(env, "a", 10, 10))
        network.add_node(adhoc_node(env, "b", 60, 10))
        neighbors = network.neighbors(a)
        epoch = network.topology_epoch
        dirty = network.cache_stats["dirty_nodes"]
        a.move_to(Position(20, 10))  # same cell, b still in range
        assert network.topology_epoch == epoch + 1
        assert network.cache_stats["dirty_nodes"] == dirty + 1
        stamped = {
            cell for cell, at in network._cell_stamp.items() if at > epoch
        }
        assert stamped == {(0, 0)}
        assert network._cell_stamp[(0, 0)] == epoch + 1
        assert network.neighbors(a) == neighbors
        assert network.grid.position_of("a") == Position(20, 10)

    def test_range_crossing_move_still_bumps(self):
        env, network = make_network()
        a = network.add_node(adhoc_node(env, "a", 0, 0))
        network.add_node(adhoc_node(env, "b", 99, 0))
        assert [n.id for n in network.neighbors(a)] == ["b"]
        epoch = network.topology_epoch
        # Same cell as before (0,0) but b falls out of range.
        a.move_to(Position(0, 50))
        assert network.topology_epoch > epoch
        assert network.neighbors(a) == ()

    def test_cell_crossing_move_bumps(self):
        env, network = make_network()
        a = network.add_node(adhoc_node(env, "a", 90, 0))
        epoch = network.topology_epoch
        a.move_to(Position(110, 0))
        assert network.topology_epoch > epoch


class TestMonitorDirtySkip:
    """Only an unchanged epoch skips a scan; any bump rescans."""

    def test_far_change_rescans(self):
        env, network = make_network()
        a = network.add_node(adhoc_node(env, "a", 0, 0))
        network.add_node(adhoc_node(env, "b", 50, 0))
        far = network.add_node(adhoc_node(env, "far", 5000, 0))
        monitor = ConnectivityMonitor(env, network, a)
        assert monitor.scan_now() == {"b"}
        queries = dict(network.cache_stats)
        assert monitor.scan_now() == {"b"}
        assert network.cache_stats == queries  # same epoch: no query
        revalidations = network.cache_stats["revalidations"]
        far.move_to(Position(5200, 0))  # bumps the epoch, far away
        assert monitor.scan_now() == {"b"}
        # The rescan is served by the revalidated neighbour entry.
        assert network.cache_stats["revalidations"] == revalidations + 1

    def test_near_change_still_rescans(self):
        env, network = make_network()
        a = network.add_node(adhoc_node(env, "a", 0, 0))
        b = network.add_node(adhoc_node(env, "b", 50, 0))
        monitor = ConnectivityMonitor(env, network, a)
        assert monitor.scan_now() == {"b"}
        b.move_to(Position(500, 0))
        assert monitor.scan_now() == set()
        b.move_to(Position(80, 0))
        assert monitor.scan_now() == {"b"}


class TestHierarchicalDeterminism:
    @staticmethod
    def _run_world(seed):
        """A mobile world routed by the hierarchical planner; returns a
        trace of every delivery (time, hops, path lengths)."""
        from repro.net import Area, RandomWaypoint

        env = Environment()
        network = Network(env)
        streams = RandomStreams(seed)
        transport = Transport(env, network, streams)
        nodes = [
            network.add_node(
                adhoc_node(env, f"n{i}", 40.0 * (i % 6), 40.0 * (i // 6))
            )
            for i in range(24)
        ]
        RandomWaypoint(
            env, nodes, Area(220, 220), streams, speed_range=(1.0, 5.0)
        )
        planner = HierarchicalRouter(network, flat_threshold=0)
        router = Router(env, network, transport, table=planner)
        trace = []

        def traffic(env):
            for round_index in range(5):
                yield env.timeout(7.0)
                message = Message(
                    f"n{round_index}", f"n{23 - round_index}", "ping",
                    size_bytes=120,
                )
                try:
                    hops = yield router.send_multihop(message)
                    trace.append((env.now, hops))
                except Unreachable:
                    trace.append((env.now, None))

        env.process(traffic(env))
        env.run(until=60.0)
        trace.append(tuple(sorted(planner.stats.items())))
        return trace

    def test_same_seed_same_deliveries(self):
        assert self._run_world(11) == self._run_world(11)


class TestSourceRoutedMobileWorld:
    """A random-waypoint world started from random positions leaves
    voids that the corridor walk routes around.  Plans made afresh at
    successive hops could then disagree, and a message circled until
    ``max_hops``; a route planned once at the source cannot circle."""

    @pytest.mark.parametrize("seed", [1, 8])
    def test_no_send_gives_up_at_max_hops(self, seed):
        from repro.net import Area, RandomWaypoint

        env = Environment()
        network = Network(env)
        streams = RandomStreams(seed)
        transport = Transport(env, network, streams)
        area = Area(800, 800)
        place = streams.stream("test.place")
        nodes = [
            network.add_node(
                NetworkNode(
                    env,
                    f"n{i}",
                    area.random_position(place),
                    technologies=[WIFI_ADHOC],
                )
            )
            for i in range(300)
        ]
        RandomWaypoint(env, nodes, area, streams)
        router = Router(
            env,
            network,
            transport,
            table=HierarchicalRouter(network, flat_threshold=0),
        )
        outcomes = {"sent": 0, "delivered": 0}
        gave_up = []

        def flow(index):
            rng = streams.stream(f"test.flow.{index}")
            while True:
                yield env.timeout(2.0)
                a, b = rng.sample(range(len(nodes)), 2)
                outcomes["sent"] += 1
                try:
                    yield router.send_multihop(
                        Message(f"n{a}", f"n{b}", "ping", size_bytes=256)
                    )
                    outcomes["delivered"] += 1
                except Unreachable as error:
                    if str(error).startswith("gave up"):
                        gave_up.append(str(error))
                except TransportTimeout:
                    pass

        for index in range(40):
            env.process(flow(index))
        env.run(until=40.0)
        assert gave_up == []
        # Most sends are delivered, so the check above is not vacuous.
        assert outcomes["delivered"] >= 0.95 * outcomes["sent"] > 0
