"""Unit tests for context awareness and paradigm selection."""

import pytest

from repro.core import (
    AgentRuntime,
    Battery,
    ClientServer,
    CodeOnDemand,
    ContextMonitor,
    ContextRegistry,
    CostWeights,
    KEY_BATTERY,
    KEY_NEIGHBORS,
    PARADIGMS,
    ParadigmSelector,
    RemoteEvaluation,
    TaskProfile,
    World,
    standard_host,
)
from repro.net import GPRS, LAN, Position, WIFI_ADHOC
from repro.net.network import _backbone_link, _direct_link


class TestBattery:
    def test_full_at_start(self):
        assert Battery().fraction == 1.0

    def test_cpu_drain(self):
        battery = Battery(capacity_joules=100.0, cpu_watts=2.0)
        battery.consume_cpu(10.0)
        assert battery.fraction == pytest.approx(0.8)

    def test_radio_drain(self):
        battery = Battery(capacity_joules=1.0, radio_joules_per_byte=1e-3)
        battery.consume_radio(500)
        assert battery.fraction == pytest.approx(0.5)

    def test_never_negative(self):
        battery = Battery(capacity_joules=1.0)
        battery.consume(5.0)
        assert battery.fraction == 0.0
        assert battery.empty

    def test_recharge(self):
        battery = Battery(capacity_joules=10.0)
        battery.consume(5.0)
        battery.recharge()
        assert battery.fraction == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Battery(capacity_joules=0)
        with pytest.raises(ValueError):
            Battery().consume(-1)


class TestContextRegistry:
    def make(self):
        self.time = 0.0
        return ContextRegistry(now=lambda: self.time)

    def test_set_get(self):
        registry = self.make()
        registry.set("k", 1)
        assert registry.get("k") == 1
        assert registry.get("missing", "d") == "d"

    def test_listener_fires_on_change_only(self):
        registry = self.make()
        events = []
        registry.subscribe(lambda key, old, new: events.append((key, old, new)))
        registry.set("k", 1)
        registry.set("k", 1)  # no change
        registry.set("k", 2)
        assert events == [("k", None, 1), ("k", 1, 2)]

    def test_unsubscribe(self):
        registry = self.make()
        events = []
        listener = lambda *a: events.append(a)
        registry.subscribe(listener)
        registry.unsubscribe(listener)
        registry.set("k", 1)
        assert events == []

    def test_freshness(self):
        registry = self.make()
        registry.set("k", 1)
        self.time = 10.0
        assert not registry.fresh("k", max_age=5.0)
        assert registry.fresh("k", max_age=20.0)
        assert not registry.fresh("missing", max_age=1e9)

    def test_snapshot_and_keys(self):
        registry = self.make()
        registry.set("b", 2)
        registry.set("a", 1)
        assert registry.snapshot() == {"a": 1, "b": 2}
        assert registry.keys() == ["a", "b"]


class TestContextMonitor:
    def test_standard_readings_appear(self):
        world = World(seed=5)
        host = standard_host(
            world,
            "a",
            Position(0, 0),
            [WIFI_ADHOC],
            battery=Battery(),
        )
        standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
        ContextMonitor(host, interval=1.0)
        world.run(until=2.5)
        assert host.context.get(KEY_BATTERY) is not None
        assert host.context.get(KEY_NEIGHBORS) == 1

    def test_bandwidth_towards_reference_peer(self):
        world = World(seed=5)
        host = standard_host(world, "a", Position(0, 0), [GPRS])
        standard_host(world, "srv", Position(0, 0), [LAN], fixed=True)
        host.node.interface("gprs").attach()
        ContextMonitor(host, interval=1.0, reference_peer="srv")
        world.run(until=1.5)
        from repro.core import KEY_BANDWIDTH

        assert host.context.get(KEY_BANDWIDTH) == GPRS.bandwidth_bps

    def test_invalid_interval(self):
        world = World(seed=5)
        host = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        with pytest.raises(ValueError):
            ContextMonitor(host, interval=0.0)


GPRS_LINK = _backbone_link(GPRS, LAN)
WIFI_LINK = _direct_link(WIFI_ADHOC)


def profile(**overrides):
    base = dict(
        interactions=10,
        request_bytes=200,
        reply_bytes=2_000,
        code_bytes=50_000,
        result_bytes=500,
        work_units=50_000,
        expected_reuses=1,
        hosts_to_visit=3,
    )
    base.update(overrides)
    return TaskProfile(**base)


class TestEstimators:
    def test_cs_scales_with_interactions(self):
        small = ClientServer.estimate(profile(interactions=1), GPRS_LINK)
        large = ClientServer.estimate(profile(interactions=100), GPRS_LINK)
        assert large.wireless_bytes > 50 * small.wireless_bytes

    def test_rev_pays_code_once(self):
        few = RemoteEvaluation.estimate(profile(interactions=1), GPRS_LINK)
        many = RemoteEvaluation.estimate(profile(interactions=100), GPRS_LINK)
        assert many.wireless_bytes == few.wireless_bytes  # traffic flat

    def test_cod_amortises_with_reuse(self):
        once = CodeOnDemand.estimate(profile(expected_reuses=1), GPRS_LINK)
        often = CodeOnDemand.estimate(profile(expected_reuses=100), GPRS_LINK)
        assert often.money < once.money
        assert often.wireless_bytes < once.wireless_bytes

    def test_ma_charges_two_wireless_hops(self):
        estimate = AgentRuntime.estimate(profile(), GPRS_LINK)
        assert estimate.wireless_bytes >= 2 * profile().code_bytes

    def test_money_zero_on_free_link(self):
        for paradigm in (
            ClientServer, RemoteEvaluation, CodeOnDemand, AgentRuntime
        ):
            assert paradigm.estimate(profile(), WIFI_LINK).money == 0.0


class TestSelector:
    def test_cs_wins_single_cheap_interaction(self):
        selector = ParadigmSelector()
        choice = selector.choose(
            profile(interactions=1, reply_bytes=200, code_bytes=100_000),
            GPRS_LINK,
        )
        assert choice.paradigm == "cs"

    def test_rev_wins_chatty_remote_work(self):
        selector = ParadigmSelector(available=["cs", "rev"])
        choice = selector.choose(
            profile(interactions=500, reply_bytes=5_000, code_bytes=5_000),
            GPRS_LINK,
        )
        assert choice.paradigm == "rev"

    def test_cod_wins_heavy_reuse(self):
        selector = ParadigmSelector()
        choice = selector.choose(
            profile(
                interactions=5,
                reply_bytes=2_000,
                expected_reuses=500,
                work_units=1_000,
            ),
            GPRS_LINK,
        )
        assert choice.paradigm == "cod"

    def test_rank_orders_by_composite(self):
        selector = ParadigmSelector()
        ranked = selector.rank(profile(), GPRS_LINK)
        costs = [e.composite(CostWeights()) for e in ranked]
        assert costs == sorted(costs)
        assert len(ranked) == 4

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ValueError):
            ParadigmSelector(available=["warp-drive"])

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_available_rejected(self, empty):
        # An explicit empty list is not "the default four".
        with pytest.raises(ValueError):
            ParadigmSelector(available=empty)

    def test_none_available_means_the_four_paradigms(self):
        assert ParadigmSelector(available=None).available == list(PARADIGMS)

    def test_weights_change_winner(self):
        selector = ParadigmSelector(available=["cs", "cod"])
        # COD: tiny amortised download (cheap) but heavy local compute
        # (slow).  CS: repeated traffic (costly) but fast remote compute.
        task = profile(
            interactions=5,
            request_bytes=200,
            reply_bytes=2_000,
            code_bytes=20_000,
            expected_reuses=100,
            work_units=1_000_000,
        )
        fast_first = selector.choose(task, GPRS_LINK, CostWeights(time=1.0, money=0.0))
        cheap_first = selector.choose(
            task, GPRS_LINK, CostWeights(time=0.0, money=5.0)
        )
        assert {fast_first.paradigm, cheap_first.paradigm} == {"cs", "cod"}

    def test_weights_from_context_low_battery(self):
        weights = CostWeights.from_context(battery_fraction=0.1)
        assert weights.energy > 0
        assert CostWeights.from_context(battery_fraction=0.9).energy == 0
