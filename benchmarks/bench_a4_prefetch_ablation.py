"""A4 (ablation) — prefetch on free links vs pure fetch-on-demand.

The commuter pattern: the device starts at home on hotspot Wi-Fi
(free), then spends the day on GPRS (metered), playing media.  Pure
COD fetches every codec when first needed — often over GPRS.  The
prefetcher uses the free morning window to pull the popular codecs
ahead of need.

Expected: prefetching shifts bytes from the metered to the free link,
cutting tariff spend and on-the-road time-to-play; totals of bytes
moved are similar (the code has to move either way).
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.apps import CODEC_CATALOGUE, MediaPlayer, build_codec_repository
from repro.core import (
    PrefetchItem,
    Prefetcher,
    World,
    mutual_trust,
    standard_host,
)
from repro.net import GPRS, LAN, Position, WIFI_INFRA
from repro.workloads import zipf_indices

from _common import instrument, once, run_process, write_report, write_result

HOME_WINDOW = 120.0  # seconds on the free hotspot before leaving
PLAYS = 30


def build():
    world = World(seed=151)
    world.transport._rng.random = lambda: 0.999
    device = standard_host(
        world, "device", Position(0, 0), [WIFI_INFRA, GPRS], cpu_speed=0.2
    )
    store = standard_host(
        world,
        "store",
        Position(10, 0),
        [WIFI_INFRA, LAN],
        fixed=True,
        repository=build_codec_repository(),
    )
    mutual_trust(device, store)
    device.node.interface("802.11b-infra").attach()
    return world, device, store


def commute_playlist(world):
    formats = sorted(CODEC_CATALOGUE)
    rng = world.streams.stream("a4.playlist")
    return [formats[i] for i in zipf_indices(rng, len(formats), PLAYS)]


def run_strategy(prefetch, observe=False):
    world, device, store = build()
    if observe:
        instrument(world)
    player = MediaPlayer(device, "store")
    playlist = commute_playlist(world)
    if prefetch:
        # Wishlist: popularity order mirrors the Zipf ranks.
        formats = sorted(CODEC_CATALOGUE)
        wishlist = [
            PrefetchItem(f"codec-{name}", 1.0 / (rank + 1))
            for rank, name in enumerate(formats)
        ]
        Prefetcher(device, "store", wishlist, check_interval=2.0)

    road_latency = []

    def go():
        # At home: idle (prefetcher may work in the background).
        yield world.env.timeout(HOME_WINDOW)
        # Leave the hotspot; GPRS from here on.
        device.node.move_to(Position(50_000, 0))
        device.node.interface("802.11b-infra").detach()
        device.node.interface("gprs").attach()
        for index, format_name in enumerate(playlist):
            record = yield from player.play(format_name, f"t{index}")
            road_latency.append(record.time_to_play_s)
            yield world.env.timeout(10.0)

    run_process(world, go())
    if observe:
        return world
    costs = device.node.costs
    gprs_bytes = costs.bytes_sent.get("gprs", 0) + costs.bytes_received.get(
        "gprs", 0
    )
    wifi_bytes = costs.bytes_sent.get("802.11b-infra", 0) + costs.bytes_received.get(
        "802.11b-infra", 0
    )
    return [
        "prefetch" if prefetch else "on-demand",
        wifi_bytes,
        gprs_bytes,
        costs.money,
        sum(road_latency) / len(road_latency),
        max(road_latency),
    ]


def run_experiment():
    return [run_strategy(prefetch=False), run_strategy(prefetch=True)]


def test_a4_prefetch_ablation(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "A4 (ablation) — prefetch over free Wi-Fi vs fetch-on-demand over GPRS "
        f"({PLAYS} plays on the road)",
        [
            "strategy",
            "wifi B",
            "gprs B",
            "tariff",
            "mean play s",
            "worst play s",
        ],
        rows,
        note=f"{HOME_WINDOW:.0f}s free-link window before leaving home",
    )
    write_result("a4_prefetch_ablation", table)
    world = run_strategy(prefetch=True, observe=True)
    write_report(
        "a4_prefetch_ablation", world,
        params={"strategy": "prefetch", "plays": PLAYS},
    )

    on_demand, prefetch = rows[0], rows[1]
    # Prefetching moves bytes onto the free link...
    assert prefetch[1] > on_demand[1]
    assert prefetch[2] < on_demand[2]
    # ...saving real money...
    assert prefetch[3] < on_demand[3] * 0.7
    # ...and making playback on the road snappier.
    assert prefetch[4] < on_demand[4]
