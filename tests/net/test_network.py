"""Unit tests for nodes, interfaces, and connectivity computation."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    BLUETOOTH,
    DIALUP,
    GPRS,
    LAN,
    Network,
    NetworkNode,
    Position,
    WIFI_ADHOC,
    RoutingTable,
)
from repro.sim import Environment
from tests.net import reference as ref


def make_network():
    env = Environment()
    network = Network(env)
    return env, network


def mobile(env, node_id, x=0.0, y=0.0, techs=(WIFI_ADHOC,)):
    return NetworkNode(env, node_id, Position(x, y), technologies=techs)


def server(env, node_id):
    return NetworkNode(
        env, node_id, Position(0, 0), technologies=[LAN], fixed=True
    )


class TestNodeBasics:
    def test_duplicate_node_rejected(self):
        env, network = make_network()
        network.add_node(mobile(env, "a"))
        with pytest.raises(NetworkError):
            network.add_node(mobile(env, "a"))

    def test_duplicate_interface_rejected(self):
        env, _ = make_network()
        node = mobile(env, "a")
        with pytest.raises(NetworkError):
            node.add_interface(WIFI_ADHOC)

    def test_unknown_node_lookup(self):
        _, network = make_network()
        with pytest.raises(NetworkError):
            network.node("ghost")

    def test_crash_clears_inbox_and_restart(self):
        env, _ = make_network()
        node = mobile(env, "a")

        def fill(env):
            yield node.inbox.put("x")

        env.process(fill(env))
        env.run()
        node.crash()
        assert not node.up
        assert node.inbox.try_get() is None
        node.restart()
        assert node.up


class TestAdhocConnectivity:
    def test_in_range_connects(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        b = network.add_node(mobile(env, "b", 50, 0))
        link = network.best_link(a, b)
        assert link is not None
        assert link.sender_technology is WIFI_ADHOC
        assert not link.via_backbone

    def test_out_of_range_disconnects(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        b = network.add_node(mobile(env, "b", 150, 0))
        assert network.best_link(a, b) is None

    def test_bluetooth_shorter_range(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0, techs=[BLUETOOTH]))
        b = network.add_node(mobile(env, "b", 15, 0, techs=[BLUETOOTH]))
        assert network.best_link(a, b) is None
        b.move_to(Position(5, 0))
        assert network.best_link(a, b) is not None

    def test_down_node_unreachable(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        b = network.add_node(mobile(env, "b", 10, 0))
        b.crash()
        assert network.best_link(a, b) is None

    def test_disabled_interface_unusable(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        b = network.add_node(mobile(env, "b", 10, 0))
        a.interface("802.11b-adhoc").disable()
        assert network.best_link(a, b) is None
        a.interface("802.11b-adhoc").enable()
        assert network.best_link(a, b) is not None

    def test_self_link_rejected(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a"))
        with pytest.raises(NetworkError):
            network.links_between(a, a)


class TestBackboneConnectivity:
    def test_gprs_reaches_lan_server(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", 0, 0, techs=[GPRS]))
        srv = network.add_node(server(env, "srv"))
        phone.interface("gprs").attach()
        link = network.best_link(phone, srv)
        assert link is not None
        assert link.via_backbone
        assert link.bandwidth_bps == GPRS.bandwidth_bps  # min of the two
        assert link.latency_s > GPRS.latency_s  # backbone adds latency

    def test_unattached_infrastructure_is_unreachable(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", 0, 0, techs=[GPRS]))
        srv = network.add_node(server(env, "srv"))
        assert network.best_link(phone, srv) is None

    def test_detach_disconnects(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", 0, 0, techs=[GPRS]))
        srv = network.add_node(server(env, "srv"))
        phone.interface("gprs").attach()
        assert network.connected("phone", "srv")
        phone.interface("gprs").detach()
        assert not network.connected("phone", "srv")

    def test_fixed_nodes_auto_attached(self):
        env, network = make_network()
        a = network.add_node(server(env, "a"))
        b = network.add_node(server(env, "b"))
        link = network.best_link(a, b)
        assert link is not None and link.via_backbone

    def test_attach_adhoc_interface_rejected(self):
        env, _ = make_network()
        node = mobile(env, "a")
        with pytest.raises(NetworkError):
            node.interface("802.11b-adhoc").attach()

    def test_policy_prefers_free_link(self):
        env, network = make_network()
        a = network.add_node(
            mobile(env, "a", 0, 0, techs=[WIFI_ADHOC, GPRS])
        )
        b = network.add_node(
            mobile(env, "b", 10, 0, techs=[WIFI_ADHOC, GPRS])
        )
        a.interface("gprs").attach()
        b.interface("gprs").attach()
        link = network.best_link(a, b)
        assert link.sender_technology is WIFI_ADHOC


class TestGraphQueries:
    def test_neighbors_lists_in_range_only(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 50, 0))
        network.add_node(mobile(env, "c", 500, 0))
        assert [n.id for n in network.neighbors(a)] == ["b"]

    def test_neighbors_excludes_backbone(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", techs=[GPRS]))
        network.add_node(server(env, "srv"))
        phone.interface("gprs").attach()
        assert network.neighbors(phone) == ()

    def test_adjacency_symmetric(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 50, 0))
        graph = network.adjacency()
        assert "b" in graph["a"] and "a" in graph["b"]

    def test_reachable_set_transitive(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 90, 0))
        network.add_node(mobile(env, "c", 180, 0))
        network.add_node(mobile(env, "d", 500, 0))
        table = RoutingTable(network, adhoc_only=False)
        reachable = {
            node_id for node_id in network.nodes
            if table.path("a", node_id) is not None
        }
        assert reachable == {"a", "b", "c"}
        assert reachable == ref.naive_reachable_set(network, "a")

    def test_shortest_path_multi_hop(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 90, 0))
        network.add_node(mobile(env, "c", 180, 0))
        table = RoutingTable(network, adhoc_only=False)
        assert table.path("a", "c") == ["a", "b", "c"]

    def test_shortest_path_none_when_partitioned(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 1000, 0))
        assert RoutingTable(network, adhoc_only=False).path("a", "b") is None

    def test_shortest_path_to_self(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        assert RoutingTable(network, adhoc_only=False).path("a", "a") == ["a"]


class TestAirtimeBilling:
    def test_dialup_airtime_charged_on_detach(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", techs=[DIALUP]))

        def session(env):
            delay = phone.interface("gsm-dialup").attach()
            yield env.timeout(delay)
            yield env.timeout(60.0)
            phone.interface("gsm-dialup").detach()

        env.process(session(env))
        env.run()
        # 20s setup + 60s connected = 80s at 0.3/min = 0.4
        assert phone.costs.money == pytest.approx(80.0 / 60.0 * 0.3)

    def test_settle_bills_without_detaching(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", techs=[DIALUP]))

        def session(env):
            phone.interface("gsm-dialup").attach()
            yield env.timeout(30.0)
            phone.settle_airtime()

        env.process(session(env))
        env.run()
        assert phone.costs.money == pytest.approx(30.0 / 60.0 * 0.3)
        assert phone.interface("gsm-dialup").attached

    def test_attach_twice_is_idempotent(self):
        env, network = make_network()
        phone = network.add_node(mobile(env, "phone", techs=[GPRS]))
        assert phone.interface("gprs").attach() == GPRS.setup_s
        assert phone.interface("gprs").attach() == 0.0


class TestTopologyEpoch:
    def test_mutations_bump_epoch(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 50, 0, techs=[WIFI_ADHOC, GPRS]))
        epoch = network.topology_epoch
        # Out-of-range, cross-cell move; small in-cell jitter that
        # changes no in-range set is elided (see TestMoveElision).
        a.move_to(Position(200, 0))
        assert network.topology_epoch > epoch
        a.move_to(Position(0, 0))
        epoch = network.topology_epoch
        a.crash()
        assert network.topology_epoch > epoch
        epoch = network.topology_epoch
        a.restart()
        assert network.topology_epoch > epoch
        epoch = network.topology_epoch
        network.node("b").interface("gprs").attach()
        assert network.topology_epoch > epoch
        epoch = network.topology_epoch
        network.node("b").interface("gprs").detach()
        assert network.topology_epoch > epoch
        epoch = network.topology_epoch
        a.interface("802.11b-adhoc").disable()
        assert network.topology_epoch > epoch
        epoch = network.topology_epoch
        a.interface("802.11b-adhoc").enable()
        assert network.topology_epoch > epoch
        epoch = network.topology_epoch
        a.add_interface(GPRS)
        assert network.topology_epoch > epoch

    def test_noop_mutations_do_not_bump(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 5, 5))
        epoch = network.topology_epoch
        a.move_to(Position(5, 5))  # same place
        a.restart()  # already up
        a.interface("802.11b-adhoc").enable()  # already enabled
        assert network.topology_epoch == epoch

    def test_stable_epoch_reuses_cached_results(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        network.add_node(mobile(env, "b", 50, 0))
        first = network.neighbors(a)
        assert network.neighbors(a) is first
        graph = network.adjacency()
        assert network.adjacency() is graph
        hits = network.cache_stats["hits"]
        network.neighbors(a)
        assert network.cache_stats["hits"] > hits

    def test_move_invalidates_neighbors(self):
        env, network = make_network()
        a = network.add_node(mobile(env, "a", 0, 0))
        b = network.add_node(mobile(env, "b", 50, 0))
        assert [n.id for n in network.neighbors(a)] == ["b"]
        b.move_to(Position(500, 0))
        assert network.neighbors(a) == ()
        b.move_to(Position(80, 0))
        assert [n.id for n in network.neighbors(a)] == ["b"]

    def test_unregistered_nodes_still_queryable(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        loose = mobile(env, "ghost", 10, 0)
        links = network.links_between(network.node("a"), loose)
        assert links and not links[0].via_backbone
        # Loose nodes never pollute the pair cache.
        assert ("a", "ghost") not in network._links_cache

    def test_node_cannot_join_two_networks(self):
        env, network = make_network()
        other = Network(env)
        a = network.add_node(mobile(env, "a"))
        with pytest.raises(NetworkError):
            other.add_node(a)

    def test_cache_info_snapshot(self):
        env, network = make_network()
        network.add_node(mobile(env, "a", 0, 0))
        info = network.cache_info()
        assert info["epoch"] == float(network.topology_epoch)
        assert {"hits", "misses", "invalidations", "grid_cell_m"} <= set(info)
