"""E2 / Figure 1 — COD vs preinstallation under limited storage.

A PDA faces a Zipf stream of playback requests over a 10-codec
catalogue (~1.5 MB with the shared DSP library) while its storage quota
is swept.  Strategies:

* preinstall — ship the hottest codecs that fit; no connectivity later;
* cod-noevict — fetch on demand, never delete; fails when full;
* cod-lru — fetch on demand with LRU eviction (the paper's "delete it,
  conserving resources").

Expected shape: COD+LRU sustains ~100% playback success at every
quota; the static strategies degrade as the quota shrinks.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.apps import CODEC_CATALOGUE, MediaPlayer, build_codec_repository
from repro.core import World, mutual_trust, standard_host
from repro.errors import QuotaExceeded, UnitNotFound
from repro.lmu import lru_policy
from repro.net import GPRS, LAN, Position
from repro.workloads import zipf_indices

from _common import instrument, once, run_process, write_report, write_result

QUOTAS = [300_000, 500_000, 800_000, 1_200_000, 2_000_000]
REQUESTS = 60


def build(quota, eviction):
    world = World(seed=202)
    world.transport._rng.random = lambda: 0.999
    pda = standard_host(
        world, "pda", Position(0, 0), [GPRS], cpu_speed=0.2, quota_bytes=quota
    )
    pda.codebase.eviction = eviction
    store = standard_host(
        world,
        "store",
        Position(0, 0),
        [LAN],
        fixed=True,
        repository=build_codec_repository(),
    )
    mutual_trust(pda, store)
    pda.node.interface("gprs").attach()
    return world, pda, store


def playlist(world):
    formats = sorted(CODEC_CATALOGUE)
    rng = world.streams.stream("e2.playlist")
    # Zipf over popularity: rank formats by catalogue order.
    return [formats[i] for i in zipf_indices(rng, len(formats), REQUESTS)]


def run_preinstall(quota):
    """Install hottest-first until the quota refuses; then play offline."""
    world, pda, store = build(quota, eviction=None)
    formats = sorted(CODEC_CATALOGUE)
    # dsp-lib first: every codec needs it.
    try:
        pda.codebase.install(store.repository.latest("dsp-lib"))
    except QuotaExceeded:
        pass
    for format_name in formats:
        unit = store.repository.latest(f"codec-{format_name}")
        try:
            pda.codebase.install(unit)
        except QuotaExceeded:
            continue
    successes = 0
    stream = playlist(world)

    def go():
        nonlocal successes
        for format_name in stream:
            name = f"codec-{format_name}"
            if name in pda.codebase and "dsp-lib" in pda.codebase:
                unit = pda.codebase.touch(name)
                outcome = pda.run_guest(unit.instantiate(), pda.id, "t")
                yield from pda.execute(outcome.work_used)
                successes += 1

    run_process(world, go())
    return successes / REQUESTS, 0.02, pda.codebase.used_bytes


def run_cod(quota, eviction, observe=False):
    world, pda, store = build(quota, eviction=eviction)
    if observe:
        instrument(world)
    player = MediaPlayer(pda, "store")
    stream = playlist(world)
    successes = 0

    def go():
        nonlocal successes
        for format_name in stream:
            try:
                yield from player.play(format_name)
                successes += 1
            except (UnitNotFound, QuotaExceeded):
                continue

    run_process(world, go())
    if observe:
        return world
    return (
        successes / REQUESTS,
        player.mean_time_to_play(),
        pda.codebase.used_bytes,
    )


def run_experiment():
    rows = []
    for quota in QUOTAS:
        pre_ok, pre_time, pre_storage = run_preinstall(quota)
        ne_ok, ne_time, ne_storage = run_cod(quota, eviction=None)
        lru_ok, lru_time, lru_storage = run_cod(quota, eviction=lru_policy)
        rows.append(
            [
                quota // 1000,
                pre_ok,
                ne_ok,
                lru_ok,
                pre_time,
                ne_time,
                lru_time,
                lru_storage // 1000,
            ]
        )
    return rows


def test_e2_cod_storage(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "E2 / Figure 1 — playback success vs storage quota (Zipf playlist, 60 requests)",
        [
            "quota kB",
            "pre ok",
            "noevict ok",
            "lru ok",
            "pre s",
            "noevict s",
            "lru s",
            "lru kB used",
        ],
        rows,
        note="catalogue 1.5MB across 10 codecs + shared DSP library",
    )
    write_result("e2_cod_storage", table)
    world = run_cod(QUOTAS[0], eviction=lru_policy, observe=True)
    write_report(
        "e2_cod_storage", world,
        params={"quota": QUOTAS[0], "eviction": "lru", "requests": REQUESTS},
    )

    for row in rows:
        quota_kb, pre_ok, ne_ok, lru_ok = row[0], row[1], row[2], row[3]
        # COD+LRU always plays everything.
        assert lru_ok == 1.0, f"LRU should sustain full coverage at {quota_kb}kB"
        # And never worse than the static strategies.
        assert lru_ok >= pre_ok and lru_ok >= ne_ok
        # Storage stays within quota.
        assert row[7] * 1000 <= quota_kb * 1000
    # The static strategies genuinely degrade at the smallest quota.
    assert rows[0][1] < 0.9
    # And recover as storage grows.
    assert rows[-1][1] >= rows[0][1]
