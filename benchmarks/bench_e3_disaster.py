"""E3 / Figure 2 — disaster messaging: agents vs end-to-end CS.

An infrastructure-less site with random-waypoint rescuers.  A message
must cross the site.  The MA strategy store-carry-forwards; the CS
baseline retries direct sends.  Node density is swept; each cell
averages several seeded trials.

Expected shape: CS collapses below the connectivity percolation
threshold (it needs an instantaneous end-to-end path, which at these
densities effectively never exists edge-to-edge); MA keeps delivering
by exploiting mobility, at a latency cost.
"""

from __future__ import annotations

from repro.analysis import proportion_ci95, render_table
from repro.apps import DeliveryLog, send_via_agent, send_via_cs
from repro.core import World
from repro.net import Area, Position, RandomWaypoint
from repro.workloads import adhoc_fleet

from _common import instrument, once, run_process, write_report, write_result

SITE = Area(500.0, 500.0)
DENSITIES = [6, 10, 16, 24]
TRIALS = 8
TTL = 900.0


def build_trial(count, seed):
    world = World(seed=seed)
    hosts = adhoc_fleet(world, count, SITE, placement="random")
    source, destination = hosts[0], hosts[-1]
    source.node.move_to(Position(10.0, 10.0))
    destination.node.move_to(Position(470.0, 470.0))
    RandomWaypoint(
        world.env,
        [host.node for host in hosts[1:-1]],
        SITE,
        world.streams,
        speed_range=(2.0, 5.0),
        pause_range=(0.0, 5.0),
    )
    return world, source, destination


def run_ma_trial(count, seed, observe=False):
    world, source, destination = build_trial(count, seed)
    if observe:
        instrument(world)
    log = DeliveryLog(destination)
    send_via_agent(source, destination.id, "sos", ttl=TTL)
    world.run(until=TTL + 5.0)
    if observe:
        return world
    if log.received:
        return True, log.received[0][2]
    return False, TTL


def run_cs_trial(count, seed):
    world, source, destination = build_trial(count, seed)

    def go():
        report = yield from send_via_cs(
            source, destination.id, "sos", ttl=TTL, retry_interval=10.0
        )
        return report

    report = run_process(world, go())
    return report.delivered, report.latency_s if report.delivered else TTL


def run_experiment():
    rows = []
    for count in DENSITIES:
        ma_delivered, ma_latencies = 0, []
        cs_delivered, cs_latencies = 0, []
        for trial in range(TRIALS):
            seed = 300 + count * 10 + trial
            delivered, latency = run_ma_trial(count, seed)
            if delivered:
                ma_delivered += 1
                ma_latencies.append(latency)
            delivered, latency = run_cs_trial(count, seed)
            if delivered:
                cs_delivered += 1
                cs_latencies.append(latency)
        rows.append(
            [
                count,
                cs_delivered / TRIALS,
                ma_delivered / TRIALS,
                proportion_ci95(ma_delivered, TRIALS),
                _median(cs_latencies),
                _median(ma_latencies),
            ]
        )
    return rows


def _median(values):
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_e3_disaster(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "E3 / Figure 2 — delivery ratio vs node density (500x500m, TTL 900s)",
        [
            "nodes",
            "CS ratio",
            "MA ratio",
            "MA ±95%",
            "CS med lat s",
            "MA med lat s",
        ],
        rows,
        note=f"{TRIALS} trials per cell; corner-to-corner SOS; 100m radios",
    )
    write_result("e3_disaster", table)
    world = run_ma_trial(DENSITIES[0], seed=300, observe=True)
    write_report(
        "e3_disaster", world,
        params={"nodes": DENSITIES[0], "ttl": TTL, "paradigm": "ma"},
    )

    total_ma = sum(row[2] for row in rows)
    total_cs = sum(row[1] for row in rows)
    # Agents always dominate the CS baseline at these densities.
    assert total_ma > total_cs
    for row in rows:
        assert row[2] >= row[1]
    # MA delivery improves (weakly) with density and reaches a solid
    # majority of trials at the top density.
    ma_ratios = [row[2] for row in rows]
    assert ma_ratios == sorted(ma_ratios)
    assert rows[-1][2] >= 0.6
    # The CS baseline essentially never gets an end-to-end corner path.
    assert rows[0][1] <= 0.25
