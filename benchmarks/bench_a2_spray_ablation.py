"""A2 (ablation) — message copies in disaster messaging.

The E3 messenger carries a single custody copy.  Spray-and-wait
replicates the message into L copies that spread through the fleet.
This ablation sweeps L on the E3 scenario and reports the delivery /
latency / radio-traffic trade-off.

Expected: delivery ratio and latency improve with L; radio bytes grow
with L — the classic single-copy vs epidemic spectrum.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.apps import DeliveryLog, send_via_agent, send_via_spray
from repro.core import World
from repro.net import Area, Position, RandomWaypoint
from repro.workloads import adhoc_fleet

from _common import instrument, once, write_report, write_result

SITE = Area(500.0, 500.0)
NODES = 12
TRIALS = 6
TTL = 900.0
COPY_COUNTS = [1, 2, 4, 8]


def run_trial(copies, seed, observe=False):
    world = World(seed=seed)
    if observe:
        instrument(world)
    hosts = adhoc_fleet(world, NODES, SITE, placement="random")
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
    log = DeliveryLog(destination)
    if copies == 1:
        # The E3 custody messenger is the single-copy baseline.
        send_via_agent(source, destination.id, "sos", ttl=TTL)
    else:
        send_via_spray(source, destination.id, "sos", copies=copies, ttl=TTL)
    world.run(until=TTL + 5.0)
    if observe:
        return world
    delivered = bool(log.received)
    latency = log.received[0][2] if delivered else TTL
    radio_bytes = sum(host.node.costs.total_bytes_sent for host in hosts)
    return delivered, latency, radio_bytes


def run_experiment():
    rows = []
    for copies in COPY_COUNTS:
        delivered_count = 0
        latencies = []
        bytes_total = 0
        for trial in range(TRIALS):
            delivered, latency, radio_bytes = run_trial(
                copies, seed=1200 + copies * 31 + trial
            )
            if delivered:
                delivered_count += 1
                latencies.append(latency)
            bytes_total += radio_bytes
        latencies.sort()
        rows.append(
            [
                copies,
                delivered_count / TRIALS,
                latencies[len(latencies) // 2] if latencies else float("nan"),
                bytes_total / TRIALS,
            ]
        )
    return rows


def test_a2_spray_ablation(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "A2 (ablation) — spray copies L vs delivery, latency, radio traffic "
        f"({NODES} nodes, {TRIALS} trials)",
        ["copies L", "delivery", "med latency s", "fleet radio B"],
        rows,
        note="L=1 is the E3 custody messenger; L>1 is binary spray-and-wait",
    )
    write_result("a2_spray_ablation", table)
    world = run_trial(4, seed=1200, observe=True)
    write_report(
        "a2_spray_ablation", world,
        params={"nodes": NODES, "copies": 4, "ttl": TTL},
    )

    by_copies = {row[0]: row for row in rows}
    # More copies never hurt delivery, and the top setting beats single-copy.
    assert by_copies[8][1] >= by_copies[1][1]
    assert by_copies[8][1] >= 0.5
    # Among spray settings, traffic grows with the copy budget.
    assert by_copies[2][3] < by_copies[4][3] < by_copies[8][3]
    # Finding: the restless custody messenger (L=1 hops continuously)
    # spends more radio than spray-and-wait, whose copies mostly sit
    # still — replication is cheaper than wandering.
    assert by_copies[1][3] > by_copies[8][3]
