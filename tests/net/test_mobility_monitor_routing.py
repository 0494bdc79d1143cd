"""Unit tests for mobility models, connectivity monitoring, and routing."""

import pytest

from repro.core import World
from repro.errors import Unreachable
from repro.faults import FaultPlan
from repro.net import (
    Area,
    ConnectivityMonitor,
    Message,
    Network,
    NetworkNode,
    PathMobility,
    Position,
    RandomWaypoint,
    Router,
    RoutingTable,
    Transport,
    WIFI_ADHOC,
    grid_positions,
)
from repro.sim import Environment, RandomStreams


def adhoc_node(env, node_id, x=0.0, y=0.0):
    return NetworkNode(env, node_id, Position(x, y), technologies=[WIFI_ADHOC])


class TestRandomWaypoint:
    def test_nodes_stay_in_area(self):
        env = Environment()
        area = Area(100, 100)
        streams = RandomStreams(3)
        nodes = [adhoc_node(env, f"n{i}", 50, 50) for i in range(5)]
        RandomWaypoint(env, nodes, area, streams, speed_range=(1.0, 5.0))
        env.run(until=200.0)
        for node in nodes:
            assert area.contains(node.position)

    def test_nodes_actually_move(self):
        env = Environment()
        area = Area(100, 100)
        nodes = [adhoc_node(env, "n0", 50, 50)]
        RandomWaypoint(env, nodes, area, RandomStreams(3), pause_range=(0, 0))
        env.run(until=30.0)
        assert nodes[0].position != Position(50, 50)

    def test_same_seed_same_trajectory(self):
        def trajectory(seed):
            env = Environment()
            node = adhoc_node(env, "n0", 50, 50)
            RandomWaypoint(
                env, [node], Area(100, 100), RandomStreams(seed), pause_range=(0, 0)
            )
            env.run(until=50.0)
            return node.position

        assert trajectory(9) == trajectory(9)
        assert trajectory(9) != trajectory(10)

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            RandomWaypoint(
                env, [], Area(10, 10), RandomStreams(0), speed_range=(0.0, 1.0)
            )
        with pytest.raises(ValueError):
            RandomWaypoint(env, [], Area(10, 10), RandomStreams(0), tick=0.0)


class TestPathMobility:
    def test_reaches_waypoints_on_time(self):
        env = Environment()
        node = adhoc_node(env, "walker", 0, 0)
        PathMobility(
            env,
            {"walker": node},
            {"walker": [(10.0, Position(100, 0)), (20.0, Position(100, 100))]},
        )
        env.run(until=10.5)
        assert node.position.distance_to(Position(100, 0)) < 1e-6
        env.run(until=20.5)
        assert node.position.distance_to(Position(100, 100)) < 1e-6


class TestGridPositions:
    def test_count_and_containment(self):
        area = Area(100, 100)
        positions = grid_positions(10, area)
        assert len(positions) == 10
        assert all(area.contains(p) for p in positions)

    def test_zero_count(self):
        assert grid_positions(0, Area(10, 10)) == []

    def test_positions_distinct(self):
        positions = grid_positions(9, Area(90, 90))
        assert len(set(positions)) == 9


class TestConnectivityMonitor:
    def test_detects_appearance_and_disappearance(self):
        env = Environment()
        network = Network(env)
        a = network.add_node(adhoc_node(env, "a", 0, 0))
        b = network.add_node(adhoc_node(env, "b", 500, 0))
        monitor = ConnectivityMonitor(env, network, a, interval=1.0)
        events = []
        monitor.subscribe(lambda peer, up: events.append((peer, up)))

        def mover(env):
            yield env.timeout(5.0)
            b.move_to(Position(50, 0))
            yield env.timeout(5.0)
            b.move_to(Position(500, 0))

        env.process(mover(env))
        env.run(until=15.0)
        assert ("b", True) in events
        assert ("b", False) in events

    def test_scan_now_returns_current_set(self):
        env = Environment()
        network = Network(env)
        a = network.add_node(adhoc_node(env, "a", 0, 0))
        network.add_node(adhoc_node(env, "b", 10, 0))
        monitor = ConnectivityMonitor(env, network, a)
        assert monitor.scan_now() == {"b"}

    def test_unsubscribe_stops_callbacks(self):
        env = Environment()
        network = Network(env)
        a = network.add_node(adhoc_node(env, "a", 0, 0))
        network.add_node(adhoc_node(env, "b", 10, 0))
        monitor = ConnectivityMonitor(env, network, a)
        events = []
        listener = lambda peer, up: events.append(peer)
        monitor.subscribe(listener)
        monitor.unsubscribe(listener)
        monitor.scan_now()
        assert events == []

    def test_invalid_interval(self):
        env = Environment()
        network = Network(env)
        a = network.add_node(adhoc_node(env, "a"))
        with pytest.raises(ValueError):
            ConnectivityMonitor(env, network, a, interval=0.0)


class TestRouter:
    def build_chain(self, spacing=90.0, count=4):
        env = Environment()
        network = Network(env)
        streams = RandomStreams(5)
        transport = Transport(env, network, streams)
        transport._rng.random = lambda: 0.99  # deterministic: no loss
        nodes = [
            network.add_node(adhoc_node(env, f"n{i}", spacing * i, 0))
            for i in range(count)
        ]
        router = Router(env, network, transport)
        return env, network, router, nodes

    def test_multihop_delivery(self):
        env, network, router, nodes = self.build_chain()
        message = Message("n0", "n3", "hello", size_bytes=200)

        def run(env):
            hops = yield router.send_multihop(message)
            received = yield nodes[3].inbox.get()
            return hops, received

        process = env.process(run(env))
        hops, received = env.run(until=process)
        assert hops == 3
        assert received.kind == "hello"
        assert received.source == "n0"
        assert received.via == "multihop"

    def test_intermediate_inboxes_left_clean(self):
        env, network, router, nodes = self.build_chain()
        message = Message("n0", "n3", "hello")

        def run(env):
            yield router.send_multihop(message)

        env.process(run(env))
        env.run()
        for node in nodes[1:3]:
            assert node.inbox.try_get() is None

    def test_partition_raises_unreachable(self):
        env, network, router, nodes = self.build_chain(spacing=300.0)

        def run(env):
            yield router.send_multihop(Message("n0", "n3", "hello"))

        env.process(run(env))
        with pytest.raises(Unreachable):
            env.run()

    def test_single_hop_to_neighbor(self):
        env, network, router, nodes = self.build_chain(count=2)

        def run(env):
            hops = yield router.send_multihop(Message("n0", "n1", "hi"))
            return hops

        process = env.process(run(env))
        assert env.run(until=process) == 1

    def test_crashed_destination_gets_nothing(self):
        # n2 crashes half a latency after its leg lands: the leg's ack
        # still reaches n1, but the relayed message must not be put
        # into the downed node's inbox.  Relay legs never enter an
        # inbox, so the landing instant comes from the schedule: each
        # leg takes its transmit time plus one latency, and the second
        # starts when the first is acknowledged, a latency after it
        # lands.
        env, network, router, nodes = self.build_chain(spacing=60.0, count=3)
        message = Message("n0", "n2", "hello", size_bytes=200)
        transmit = WIFI_ADHOC.transfer_time(message.wire_size)
        latency = WIFI_ADHOC.latency_s
        landed = transmit + latency + latency + transmit + latency

        def crash_after_leg(env):
            yield env.timeout(landed + latency / 2)
            nodes[2].crash()

        def run(env):
            try:
                yield router.send_multihop(message)
            except Unreachable as error:
                return str(error)

        env.process(crash_after_leg(env))
        assert env.run(until=env.process(run(env))) == "destination n2 is down"
        assert nodes[2].inbox.try_get() is None

    def test_max_hops_enforced(self):
        env, network, chain_router, nodes = self.build_chain()
        router = Router(env, network, chain_router.transport, max_hops=2)

        def run(env):
            yield router.send_multihop(Message("n0", "n3", "hello"))

        env.process(run(env))
        with pytest.raises(Unreachable, match="gave up after 2 hops"):
            env.run()
        assert nodes[3].inbox.try_get() is None


def chain_world(faults=None):
    """n0 - n1 - n2 - n3, 90 m apart on Wi-Fi, with no transit loss and
    ``faults`` (a :class:`FaultPlan`) armed."""
    world = World(seed=5)
    world.transport._rng.random = lambda: 0.99  # deterministic: no loss
    nodes = [
        world.add_node(f"n{i}", Position(90.0 * i, 0), [WIFI_ADHOC])
        for i in range(4)
    ]
    if faults is not None:
        faults.inject(world)
    return world, nodes, Router(world.env, world.network, world.transport)


class TestRelayLegsSkipInboxes:
    """Relay legs are router plumbing: no inbox ever holds one, even
    when a fault window delays or duplicates them."""

    @pytest.mark.parametrize("window", ["delay", "duplicate"])
    def test_fault_window_leaves_only_relayed_messages(self, window):
        plan = FaultPlan()
        if window == "delay":
            plan.delay(
                at=0.0, duration=60.0, extra_s=0.5, message_kinds=("net.relay",)
            )
        else:
            plan.duplicate(
                at=0.0, duration=60.0, rate=1.0, message_kinds=("net.relay",)
            )
        world, nodes, router = chain_world(plan)
        sent = []

        def run(env):
            for index in range(5):
                message = Message("n0", "n3", "hello", payload=index)
                assert (yield router.send_multihop(message)) == 3
                sent.append(message)

        world.env.process(run(world.env))
        world.run(until=30.0)
        assert len(sent) == 5
        # The window hit every leg, and no copy of one was put anywhere.
        faulted = {"delay": "delayed", "duplicate": "duplicated"}[window]
        assert world.metrics.snapshot()[f"faults.messages_{faulted}"] == 15
        for node in nodes[:3]:
            assert list(node.inbox.items) == []
        assert list(nodes[3].inbox.items) == sent


class TestRelayFailures:
    """A relay is no process, but it keeps the process's failure
    contract: whatever a step raises fails the multihop event."""

    class RaisingPlanner:
        def path(self, source_id, target_id):
            raise RuntimeError("planner exploded")

    def test_planner_error_reaches_the_waiter(self):
        world, nodes, _ = chain_world()
        router = Router(
            world.env,
            world.network,
            world.transport,
            table=self.RaisingPlanner(),
        )

        def run(env):
            try:
                yield router.send_multihop(Message("n0", "n3", "hello"))
            except RuntimeError as error:
                return str(error), env.now

        process = world.env.process(run(world.env))
        assert world.env.run(until=process) == ("planner exploded", 0.0)
        assert list(nodes[3].inbox.items) == []

    def test_unawaited_planner_error_raises_out_of_run(self):
        world, _, _ = chain_world()
        router = Router(
            world.env,
            world.network,
            world.transport,
            table=self.RaisingPlanner(),
        )
        router.send_multihop(Message("n0", "n3", "hello"))
        with pytest.raises(RuntimeError, match="planner exploded"):
            world.env.run()

    def test_unawaited_unreachable_relay_raises_out_of_run(self):
        world, nodes, router = chain_world()
        nodes[3].move_to(Position(1_000, 0))
        router.send_multihop(Message("n0", "n3", "hello"))
        with pytest.raises(Unreachable, match="no path from n0 to n3"):
            world.env.run()


class TestRelayWorkCount:
    """Exact kernel work of a multi-hop send: per hop, the leg's own
    events plus one hop event; per message, the relay's own event."""

    def test_hundred_three_hop_relays(self):
        env = Environment()
        network = Network(env)
        transport = Transport(env, network, RandomStreams(5))
        transport._rng.random = lambda: 0.99  # deterministic: no loss
        nodes = [
            network.add_node(adhoc_node(env, f"n{i}", 90.0 * i, 0))
            for i in range(4)
        ]
        router = Router(env, network, transport)
        received = []

        def receiver(env):
            while True:
                received.append((yield nodes[3].inbox.get()))

        def sender(env):
            for _ in range(100):
                yield router.send_multihop(
                    Message("n0", "n3", "data", size_bytes=200)
                )

        env.process(receiver(env))
        env.process(sender(env))
        steps = 0
        step = env.step

        def counting_step():
            nonlocal steps
            step()  # raises, uncounted, once the queue is empty
            steps += 1

        env.step = counting_step
        env.run()
        assert [message.kind for message in received] == ["data"] * 100
        # 17 events per message: each leg's claim, transmit, latency
        # and ack (the first leg starts in the sender's event, the later
        # ones inside the hop event); one hop event per leg; the relay's
        # event and the receiver's get.  The process-based relay takes
        # 22 (2,203 in all): the same legs, each with its own start, a
        # reclaiming get per hop, the destination's put and the
        # process's end.
        assert steps == 1_703


class CountingPlanner:
    """Records every ``path()`` call made through it."""

    def __init__(self, planner):
        self.planner = planner
        self.calls = []

    def path(self, source_id, target_id):
        self.calls.append((source_id, target_id))
        return self.planner.path(source_id, target_id)


class TestSourceRouting:
    """``Router`` plans once at the source and re-plans only when the
    link to the carried route's next node is gone."""

    def build(self, spares=True):
        """s - a - b - d in a line, plus (with ``spares``) a detour
        a - c - d around b."""
        env = Environment()
        network = Network(env)
        transport = Transport(env, network, RandomStreams(5))
        transport._rng.random = lambda: 0.99  # deterministic: no loss
        layout = {"s": (0, 0), "a": (80, 0), "b": (160, 0), "d": (240, 0)}
        if spares:
            layout["c"] = (160, 50)
        nodes = {
            node_id: network.add_node(adhoc_node(env, node_id, x, y))
            for node_id, (x, y) in layout.items()
        }
        planner = CountingPlanner(RoutingTable(network))
        router = Router(env, network, transport, table=planner)
        return env, router, planner, nodes

    def send(self, env, router, message, disrupt=None):
        """Send ``message``; ``disrupt`` runs while the first leg is in
        the air."""

        def run(env):
            return (yield router.send_multihop(message))

        def disrupter(env):
            yield env.timeout(0.001)
            disrupt()

        process = env.process(run(env))
        if disrupt is not None:
            env.process(disrupter(env))
        return env.run(until=process)

    def test_static_chain_costs_one_plan(self):
        env, router, planner, nodes = self.build()
        assert self.send(env, router, Message("s", "d", "hello")) == 3
        assert planner.calls == [("s", "d")]
        assert nodes["d"].inbox.try_get().kind == "hello"

    @pytest.mark.parametrize(
        "break_link",
        [
            lambda node: node.move_to(Position(1000, 1000)),
            lambda node: node.crash(),
        ],
        ids=["moved-away", "crashed"],
    )
    def test_broken_link_costs_one_replan_from_current_node(self, break_link):
        env, router, planner, nodes = self.build()
        assert planner.planner.path("s", "d") == ["s", "a", "b", "d"]
        message = Message("s", "d", "hello")
        hops = self.send(
            env, router, message, disrupt=lambda: break_link(nodes["b"])
        )
        assert hops == 3
        assert planner.calls == [("s", "d"), ("a", "d")]
        assert nodes["d"].inbox.try_get() is message
        for relay in ("a", "b", "c"):
            assert nodes[relay].inbox.try_get() is None

    def test_break_without_detour_raises_no_path_from_current_node(self):
        env, router, planner, nodes = self.build(spares=False)
        with pytest.raises(Unreachable, match="no path from a to d"):
            self.send(
                env,
                router,
                Message("s", "d", "hello"),
                disrupt=lambda: nodes["b"].move_to(Position(1000, 1000)),
            )
        assert planner.calls == [("s", "d"), ("a", "d")]
        assert nodes["a"].inbox.try_get() is None
