"""Property-based tests for network connectivity and transport invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    BLUETOOTH,
    GPRS,
    LAN,
    Message,
    Network,
    NetworkNode,
    Position,
    RoutingTable,
    Transport,
    WIFI_ADHOC,
)
from repro.sim import Environment, RandomStreams
from tests.net import reference as ref

TECH_SETS = [
    [WIFI_ADHOC],
    [BLUETOOTH],
    [WIFI_ADHOC, BLUETOOTH],
    [GPRS],
    [WIFI_ADHOC, GPRS],
]

node_specs = st.lists(
    st.tuples(
        st.floats(0, 500),  # x
        st.floats(0, 500),  # y
        st.sampled_from(range(len(TECH_SETS))),
        st.booleans(),  # attached (for infra interfaces)
    ),
    min_size=2,
    max_size=8,
)


def build_network(specs):
    env = Environment()
    network = Network(env)
    for index, (x, y, tech_index, attach) in enumerate(specs):
        node = NetworkNode(
            env,
            f"n{index}",
            Position(x, y),
            technologies=TECH_SETS[tech_index],
        )
        network.add_node(node)
        if attach:
            for interface in node.interfaces.values():
                if interface.technology.infrastructure:
                    interface.attach()
    return env, network


class TestConnectivityProperties:
    @given(node_specs)
    @settings(max_examples=60)
    def test_links_symmetric(self, specs):
        env, network = build_network(specs)
        ids = list(network.nodes)
        for i, a_id in enumerate(ids):
            for b_id in ids[i + 1 :]:
                a, b = network.node(a_id), network.node(b_id)
                forward = {link.name for link in network.links_between(a, b)}
                backward = {link.name.replace(a_id, "").replace(b_id, "") for link in network.links_between(b, a)}
                # Same number of links each way; ad-hoc names match exactly.
                assert len(network.links_between(a, b)) == len(
                    network.links_between(b, a)
                )
                adhoc_forward = {
                    link.name
                    for link in network.links_between(a, b)
                    if not link.via_backbone
                }
                adhoc_backward = {
                    link.name
                    for link in network.links_between(b, a)
                    if not link.via_backbone
                }
                assert adhoc_forward == adhoc_backward

    @given(node_specs)
    @settings(max_examples=60)
    def test_connected_is_symmetric(self, specs):
        env, network = build_network(specs)
        ids = list(network.nodes)
        for i, a_id in enumerate(ids):
            for b_id in ids[i + 1 :]:
                assert network.connected(a_id, b_id) == network.connected(
                    b_id, a_id
                )

    @given(node_specs)
    @settings(max_examples=40)
    def test_reachable_sets_partition_adhoc_graph(self, specs):
        env, network = build_network(specs)
        ids = list(network.nodes)
        table = RoutingTable(network, adhoc_only=True)
        components = {}
        for node_id in ids:
            components[node_id] = frozenset(
                other for other in ids if table.path(node_id, other) is not None
            )
            assert components[node_id] == ref.naive_reachable_set(
                network, node_id, adhoc_only=True
            )
        # Membership is an equivalence: same component <=> same set.
        for a_id in ids:
            for b_id in ids:
                if b_id in components[a_id]:
                    assert components[a_id] == components[b_id]

    @given(node_specs)
    @settings(max_examples=40)
    def test_shortest_path_endpoints_and_adjacency(self, specs):
        env, network = build_network(specs)
        graph = network.adjacency()
        table = RoutingTable(network, adhoc_only=False)
        ids = list(network.nodes)
        for a_id in ids:
            for b_id in ids:
                if a_id == b_id:
                    continue
                path = table.path(a_id, b_id)
                if path is None:
                    continue
                assert path[0] == a_id and path[-1] == b_id
                for current, following in zip(path, path[1:]):
                    assert following in graph[current]


class TestTransportProperties:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.floats(min_value=5, max_value=95),
    )
    @settings(max_examples=30, deadline=None)
    def test_bytes_conserved_on_delivery(self, size, distance):
        env = Environment()
        network = Network(env)
        streams = RandomStreams(0)
        transport = Transport(env, network, streams)
        transport._rng.random = lambda: 0.999  # no loss
        a = network.add_node(
            NetworkNode(env, "a", Position(0, 0), technologies=[WIFI_ADHOC])
        )
        b = network.add_node(
            NetworkNode(
                env, "b", Position(distance, 0), technologies=[WIFI_ADHOC]
            )
        )
        message = Message("a", "b", "data", size_bytes=size)

        def go():
            delivered = yield transport.send(message)
            return delivered

        process = env.process(go())
        assert env.run(until=process) is True
        # Sender and receiver book identical wire bytes.
        assert a.costs.total_bytes_sent == b.costs.total_bytes_received
        assert a.costs.total_bytes_sent == message.wire_size
        # Simulated clock advanced by at least the transmission time.
        assert env.now >= WIFI_ADHOC.transfer_time(message.wire_size)

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_reliable_attempts_bounded(self, max_attempts):
        env = Environment()
        network = Network(env)
        transport = Transport(env, network, RandomStreams(0))
        transport._rng.random = lambda: 0.0  # always lose
        network.add_node(
            NetworkNode(env, "a", Position(0, 0), technologies=[WIFI_ADHOC])
        )
        network.add_node(
            NetworkNode(env, "b", Position(10, 0), technologies=[WIFI_ADHOC])
        )
        from repro.errors import TransportTimeout

        def go():
            yield transport.send_reliable(
                Message("a", "b", "x", size_bytes=10),
                max_attempts=max_attempts,
            )

        env.process(go())
        with pytest.raises(TransportTimeout):
            env.run()
        sent = transport.metrics.counter("net.retransmissions").value
        assert sent == max_attempts - 1
