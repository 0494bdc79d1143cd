"""A3 (ablation) — discovery: gratuitous beaconing vs on-demand queries.

The decentralised discovery component supports both proactive beacons
(providers periodically broadcast their adverts; clients answer lookups
from cache) and reactive queries (clients broadcast on demand).  This
ablation sweeps the client's lookup rate and reports radio traffic and
lookup latency for three configurations: query-only, beacon-1s, and
beacon-10s.

Expected: beaconing buys near-zero lookup latency at a fixed traffic
floor; query-only pays per lookup — so reactive wins at low lookup
rates and proactive at high ones.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.core import World, mutual_trust, service, standard_host
from repro.net import Position, WIFI_ADHOC

from _common import instrument, once, run_process, write_report, write_result

DURATION = 300.0
LOOKUP_COUNTS = [3, 30, 150]
CONFIGURATIONS = [
    ("query-only", None),
    ("beacon-10s", 10.0),
    ("beacon-1s", 1.0),
]


def run_cell(lookups, beacon_interval, observe=False):
    world = World(seed=131)
    if observe:
        instrument(world)
    world.transport._rng.random = lambda: 0.999
    client = standard_host(world, "client", Position(0, 0), [WIFI_ADHOC])
    provider = standard_host(
        world,
        "provider",
        Position(20, 0),
        [WIFI_ADHOC],
        beacon_interval=beacon_interval,
    )
    mutual_trust(client, provider)
    provider.component("discovery").advertise(
        service("printer", "provider", "lobby")
    )
    interval = DURATION / lookups
    latencies = []

    def go():
        for _lookup in range(lookups):
            started = world.now
            found = yield from client.component("discovery").find(
                "printer", window=1.0
            )
            assert found
            latencies.append(world.now - started)
            yield world.env.timeout(interval)

    run_process(world, go())
    if observe:
        return world
    total_bytes = (
        client.node.costs.total_bytes_sent
        + provider.node.costs.total_bytes_sent
    )
    return total_bytes, sum(latencies) / len(latencies)


def run_experiment():
    rows = []
    for lookups in LOOKUP_COUNTS:
        row = [lookups]
        for _name, beacon_interval in CONFIGURATIONS:
            total_bytes, mean_latency = run_cell(lookups, beacon_interval)
            row.extend([total_bytes, mean_latency])
        rows.append(row)
    return rows


def test_a3_discovery_ablation(benchmark):
    rows = once(benchmark, run_experiment)
    headers = ["lookups/5min"]
    for name, _interval in CONFIGURATIONS:
        headers.extend([f"{name} B", f"{name} lat s"])
    table = render_table(
        "A3 (ablation) — proactive beaconing vs reactive queries "
        f"(over {DURATION:.0f}s)",
        headers,
        rows,
        note="one provider in range; cache answers lookups between beacons",
    )
    write_result("a3_discovery_ablation", table)
    world = run_cell(3, beacon_interval=None, observe=True)
    write_report(
        "a3_discovery_ablation", world,
        params={"lookups": 3, "beacon_interval": None},
    )

    by_lookups = {row[0]: row for row in rows}
    # Beaconing keeps lookup latency near zero (cache hits)...
    for row in rows:
        beacon_1s_latency = row[6]
        query_latency = row[2]
        assert beacon_1s_latency < query_latency
    # ...but costs a traffic floor: at the LOWEST lookup rate,
    # query-only is cheapest; at the HIGHEST, fast beaconing no longer
    # dominates the budget the way it does at idle.
    low = by_lookups[LOOKUP_COUNTS[0]]
    assert low[1] < low[5]  # query-only bytes < beacon-1s bytes at idle
    high = by_lookups[LOOKUP_COUNTS[-1]]
    ratio_low = low[5] / low[1]
    ratio_high = high[5] / high[1]
    assert ratio_high < ratio_low  # beaconing amortises as lookups grow
