"""Edge cases across the scenario applications."""

import pytest

from repro.apps import (
    DeliveryLog,
    LocationAwareBrowser,
    MediaPlayer,
    build_codec_repository,
    make_venue,
    send_via_spray,
)
from repro.core import TaskAgent, World, mutual_trust, standard_host
from repro.net import GPRS, LAN, PathMobility, Position, WIFI_ADHOC
from tests.core.conftest import loss_free, run


class TestBrowserWander:
    def test_wander_discovers_venue_en_route(self):
        world = loss_free(World(seed=181))
        user = standard_host(world, "user", Position(0, 0), [WIFI_ADHOC])
        cinema = standard_host(
            world, "cinema", Position(1000, 0), [WIFI_ADHOC], fixed=True
        )
        mutual_trust(user, cinema)
        make_venue(cinema, "roxy")
        browser = LocationAwareBrowser(user)
        # The user strolls past the cinema.
        PathMobility(
            world.env,
            {"user": user.node},
            {"user": [(60.0, Position(950, 0)), (120.0, Position(2000, 0))]},
        )
        world.env.process(browser.wander(interval=5.0, rounds=30))
        world.run(until=200.0)
        assert any(
            encounter.description.name == "roxy"
            for encounter in browser.encounters.values()
        )

    def test_wander_bounded_rounds_terminates(self):
        world = loss_free(World(seed=182))
        user = standard_host(world, "user", Position(0, 0), [WIFI_ADHOC])
        browser = LocationAwareBrowser(user)
        process = world.env.process(browser.wander(interval=1.0, rounds=3))
        world.run(until=process)
        assert world.now < 60.0


class TestMediaUnderLoss:
    def test_playback_succeeds_over_lossy_link(self):
        # Real (not stubbed) loss draws; reliable transport retries.
        world = World(seed=183)
        phone = standard_host(world, "phone", Position(0, 0), [GPRS])
        store = standard_host(
            world,
            "store",
            Position(0, 0),
            [LAN],
            fixed=True,
            repository=build_codec_repository(),
        )
        mutual_trust(phone, store)
        phone.node.interface("gprs").attach()
        player = MediaPlayer(phone, "store")

        def go():
            record = yield from player.play("wav")
            return record

        record = run(world, go())
        assert record.outcome == "miss"
        assert "codec-wav" in phone.codebase


class TestItineraryDuplicates:
    def test_same_host_visited_twice(self):
        world = loss_free(World(seed=184))
        home = standard_host(world, "home", Position(0, 0), [LAN])
        home.node.interface("lan").attach()
        vendor = standard_host(world, "v", Position(0, 0), [LAN], fixed=True)
        mutual_trust(home, vendor)
        counter = {"calls": 0}

        def tick(args, host):
            counter["calls"] += 1
            return (counter["calls"], 8)

        vendor.register_service("tick", tick)

        runtime = home.component("agents")
        agent_id = runtime.launch(
            TaskAgent(), service="tick", payload=None, targets=["v", "v"]
        )

        def go():
            final = yield runtime.completion(agent_id)
            return final

        final = run(world, go())
        assert final["outcome"] == "completed"
        assert final["results"] == [1, 2]
        # Both visits happened during a single stay: 1 hop out + 1 home.
        assert final["hops"] == 2


class TestSprayDeliveryDedup:
    def test_multiple_copies_may_arrive_log_keeps_all(self):
        world = loss_free(World(seed=185))
        source = standard_host(world, "src", Position(0, 0), [WIFI_ADHOC])
        relay = standard_host(world, "relay", Position(40, 0), [WIFI_ADHOC])
        destination = standard_host(world, "dst", Position(80, 0), [WIFI_ADHOC])
        mutual_trust(source, relay, destination)
        log = DeliveryLog(destination)
        send_via_spray(source, "dst", "sos", copies=4, ttl=120.0)
        world.run(until=120.0)
        payloads = [payload for _v, payload, _t in log.received]
        # At least one copy arrived; duplicates are the application's to
        # dedup (the log records every arrival faithfully).
        assert payloads.count("sos") >= 1
        unique = set(payloads)
        assert unique == {"sos"}
