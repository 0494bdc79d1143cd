"""Integration tests: codec-on-demand media player and location-based services."""

import pytest

from repro.apps import (
    CODEC_CATALOGUE,
    LocationAwareBrowser,
    MediaPlayer,
    build_codec_repository,
    codec_unit_name,
    make_venue,
    preinstall_all_codecs,
)
from repro.core import World, mutual_trust, standard_host
from repro.errors import QuotaExceeded, UnitNotFound
from repro.net import GPRS, LAN, Position, WIFI_ADHOC
from tests.core.conftest import loss_free, run


def media_world(quota=float("inf")):
    world = loss_free(World(seed=21))
    phone = standard_host(
        world, "phone", Position(0, 0), [GPRS], cpu_speed=0.2, quota_bytes=quota
    )
    vendor = standard_host(
        world,
        "vendor",
        Position(0, 0),
        [LAN],
        fixed=True,
        repository=build_codec_repository(),
    )
    mutual_trust(phone, vendor)
    phone.node.interface("gprs").attach()
    return world, phone, vendor


class TestMediaPlayer:
    def test_first_play_misses_then_hits(self):
        world, phone, vendor = media_world()
        player = MediaPlayer(phone, "vendor")

        def go():
            first = yield from player.play("ogg", "song-1")
            second = yield from player.play("ogg", "song-2")
            return first, second

        first, second = run(world, go())
        assert first.outcome == "miss"
        assert second.outcome == "hit"
        assert second.time_to_play_s < first.time_to_play_s
        assert codec_unit_name("ogg") in phone.codebase
        assert "dsp-lib" in phone.codebase  # dependency came along

    def test_unknown_format_fails(self):
        world, phone, vendor = media_world()
        player = MediaPlayer(phone, "vendor")

        def go():
            yield from player.play("eight-track")

        with pytest.raises(UnitNotFound):
            run(world, go())
        assert player.history[-1].outcome == "failed"

    def test_quota_eviction_keeps_playing(self):
        # Quota fits the DSP library plus ~2 codecs.
        world, phone, vendor = media_world(quota=400_000)
        phone.codebase.pin  # noqa: B018 - documents that nothing is pinned
        player = MediaPlayer(phone, "vendor")
        formats = ["mp3", "ogg", "aac", "real", "mp3", "wav"]

        def go():
            for format_name in formats:
                yield from player.play(format_name)

        run(world, go())
        assert len(player.history) == len(formats)
        assert phone.codebase.used_bytes <= 400_000
        assert phone.codebase.evictions >= 1

    def test_miss_rate_and_mean_time(self):
        world, phone, vendor = media_world()
        player = MediaPlayer(phone, "vendor")

        def go():
            yield from player.play("mp3")
            yield from player.play("mp3")

        run(world, go())
        assert player.miss_rate == 0.5
        assert player.mean_time_to_play() > 0

    def test_preinstall_all_exceeds_small_quota(self):
        world, phone, vendor = media_world(quota=400_000)
        phone.codebase.eviction = None
        with pytest.raises(QuotaExceeded):
            preinstall_all_codecs(phone, vendor.repository)

    def test_preinstall_all_fits_large_quota(self):
        world, phone, vendor = media_world()
        installed = preinstall_all_codecs(phone, vendor.repository)
        assert len(installed) == len(CODEC_CATALOGUE) + 1  # + dsp-lib


class TestLocationBasedServices:
    def venue_world(self):
        world = loss_free(World(seed=22))
        user = standard_host(world, "user", Position(0, 0), [WIFI_ADHOC])
        cinema = standard_host(
            world, "cinema", Position(2000, 0), [WIFI_ADHOC], fixed=True
        )
        mutual_trust(user, cinema)
        make_venue(cinema, "odeon", ticket_price=9.0)
        return world, user, cinema

    def test_venue_not_found_when_far(self):
        world, user, cinema = self.venue_world()
        browser = LocationAwareBrowser(user)

        def go():
            fresh = yield from browser.look_around()
            return fresh

        assert run(world, go()) == []

    def test_ui_fetched_on_entering_premises(self):
        world, user, cinema = self.venue_world()
        browser = LocationAwareBrowser(user)
        user.node.move_to(Position(1950, 0))  # walk into range

        def go():
            fresh = yield from browser.look_around()
            return fresh

        fresh = run(world, go())
        assert len(fresh) == 1
        assert fresh[0].description.name == "odeon"
        assert "ui-odeon" in user.codebase
        assert fresh[0].setup_time_s > 0

    def test_order_tickets_through_fetched_ui(self):
        world, user, cinema = self.venue_world()
        browser = LocationAwareBrowser(user)
        user.node.move_to(Position(1950, 0))

        def go():
            yield from browser.look_around()
            receipt = yield from browser.order_tickets("odeon", seats=3)
            return receipt

        receipt = run(world, go())
        assert receipt == {"venue": "odeon", "seats": 3, "total": 27.0}

    def test_second_visit_reuses_ui(self):
        world, user, cinema = self.venue_world()
        browser = LocationAwareBrowser(user)
        user.node.move_to(Position(1950, 0))

        def go():
            yield from browser.look_around()
            yield from browser.look_around()

        run(world, go())
        assert world.metrics.counter("cod.misses").value == 1

    def test_order_unknown_venue_raises(self):
        from repro.errors import ServiceNotFound

        world, user, cinema = self.venue_world()
        browser = LocationAwareBrowser(user)

        def go():
            yield from browser.order_tickets("multiplex")

        with pytest.raises(ServiceNotFound):
            run(world, go())
