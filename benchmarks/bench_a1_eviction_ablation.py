"""A1 (ablation) — codebase eviction policy under the COD workload.

DESIGN.md's storage manager offers pluggable eviction (LRU, LFU,
largest-first).  This ablation re-runs the E2 workload (Zipf playback
stream, tight quota) under each policy.  All policies keep playback at
100% (that is E2's finding); the differentiator is how much re-fetching
each one causes: misses, wireless bytes, and mean time-to-play.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.apps import CODEC_CATALOGUE, MediaPlayer, build_codec_repository
from repro.core import World, mutual_trust, standard_host
from repro.lmu import largest_first_policy, lfu_policy, lru_policy
from repro.net import GPRS, LAN, Position
from repro.workloads import zipf_indices

from _common import instrument, once, run_process, write_report, write_result

QUOTA = 500_000
REQUESTS = 80
POLICIES = [
    ("lru", lru_policy),
    ("lfu", lfu_policy),
    ("largest-first", largest_first_policy),
]


def run_policy(name, policy, observe=False):
    world = World(seed=111)
    if observe:
        instrument(world)
    world.transport._rng.random = lambda: 0.999
    pda = standard_host(
        world, "pda", Position(0, 0), [GPRS], cpu_speed=0.2, quota_bytes=QUOTA
    )
    pda.codebase.eviction = policy
    store = standard_host(
        world, "store", Position(0, 0), [LAN], fixed=True,
        repository=build_codec_repository(),
    )
    mutual_trust(pda, store)
    pda.node.interface("gprs").attach()
    player = MediaPlayer(pda, "store")
    formats = sorted(CODEC_CATALOGUE)
    rng = world.streams.stream("a1.playlist")
    playlist = [formats[i] for i in zipf_indices(rng, len(formats), REQUESTS)]

    def go():
        for format_name in playlist:
            yield from player.play(format_name)

    run_process(world, go())
    if observe:
        return world
    misses = sum(1 for record in player.history if record.outcome == "miss")
    return [
        name,
        len(player.history) / REQUESTS,
        misses,
        pda.codebase.evictions,
        pda.node.costs.wireless_bytes(),
        player.mean_time_to_play(),
        pda.node.costs.money,
    ]


def run_experiment():
    return [run_policy(name, policy) for name, policy in POLICIES]


def test_a1_eviction_ablation(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "A1 (ablation) — eviction policy on the Zipf codec workload "
        f"(quota {QUOTA // 1000}kB, {REQUESTS} plays)",
        [
            "policy",
            "played",
            "misses",
            "evictions",
            "wireless B",
            "mean play s",
            "tariff",
        ],
        rows,
        note="identical playlist and quota; only the eviction policy differs",
    )
    write_result("a1_eviction_ablation", table)
    world = run_policy("lfu", lfu_policy, observe=True)
    write_report(
        "a1_eviction_ablation", world,
        params={"quota": QUOTA, "requests": REQUESTS, "policy": "lfu"},
    )

    # Every policy sustains full playback (the COD story of E2)...
    for row in rows:
        assert row[1] == 1.0
    # ...and on a Zipf (stable hot-set) workload, *frequency*-aware
    # eviction re-fetches least: LFU keeps the hot codecs, while LRU can
    # be flushed by a cold burst.  This is the ablation's finding.
    by_name = {row[0]: row for row in rows}
    assert by_name["lfu"][2] <= by_name["lru"][2]
    assert by_name["lfu"][2] <= by_name["largest-first"][2]
    assert by_name["lfu"][4] <= by_name["lru"][4]
