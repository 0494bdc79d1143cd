"""E6 / Table 3 — decentralised vs centralised service discovery.

A client stands next to a printer-offering peer (ad-hoc range) while a
Jini-style lookup server sits on the backbone.  The lookup server's
availability is swept 0–100% (it is crashed for the complementary
fraction of query instants).  Twenty queries per cell.

Expected shape: centralised success tracks server availability
~linearly (the paper's criticism: no lookup server, no discovery);
decentralised discovery keeps succeeding because the provider itself
is in range.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.core import (
    LookupClient,
    LookupServer,
    World,
    mutual_trust,
    service,
    standard_host,
)
from repro.errors import ServiceNotFound
from repro.net import GPRS, LAN, Position, WIFI_ADHOC

from _common import instrument, once, run_process, write_report, write_result

AVAILABILITIES = [0.0, 0.25, 0.5, 0.75, 1.0]
QUERIES = 20


def build(seed):
    world = World(seed=seed)
    world.transport._rng.random = lambda: 0.999
    lus = standard_host(world, "lus", Position(0, 0), [LAN], fixed=True)
    lus.add_component(LookupServer(lease_duration=10_000.0))
    provider = standard_host(
        world, "provider", Position(10, 0), [WIFI_ADHOC, LAN], fixed=True
    )
    provider.add_component(LookupClient("lus"))
    client = standard_host(
        world, "client", Position(0, 0), [WIFI_ADHOC, GPRS]
    )
    client.add_component(LookupClient("lus"))
    client.node.interface("gprs").attach()
    mutual_trust(lus, provider, client)
    description = service("printer", "provider", "lobby")
    provider.component("discovery").advertise(description)

    def register():
        yield from provider.component("lookup-client").register(description)

    run_process(world, register())
    return world, lus, provider, client


def run_cell(availability, seed=606, observe=False):
    world, lus, provider, client = build(seed)
    if observe:
        instrument(world)
    rng = world.streams.stream("e6.availability")
    outcomes = {"central_ok": 0, "decentral_ok": 0}
    latencies = {"central": [], "decentral": []}

    def go():
        for _query in range(QUERIES):
            server_up = rng.random() < availability
            if server_up and not lus.node.up:
                lus.node.restart()
            elif not server_up and lus.node.up:
                lus.node.crash()
            started = world.now
            try:
                found = yield from client.component("lookup-client").find(
                    "printer"
                )
                if found:
                    outcomes["central_ok"] += 1
                    latencies["central"].append(world.now - started)
            except ServiceNotFound:
                pass
            started = world.now
            found = yield from client.component("discovery").find(
                "printer", window=1.0, use_cache=False
            )
            if found:
                outcomes["decentral_ok"] += 1
                latencies["decentral"].append(world.now - started)
            yield world.env.timeout(5.0)

    run_process(world, go())
    if observe:
        return world
    return (
        outcomes["central_ok"] / QUERIES,
        outcomes["decentral_ok"] / QUERIES,
        _mean(latencies["central"]),
        _mean(latencies["decentral"]),
    )


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def run_experiment():
    rows = []
    for availability in AVAILABILITIES:
        central_ok, decentral_ok, central_lat, decentral_lat = run_cell(
            availability
        )
        rows.append(
            [availability, central_ok, decentral_ok, central_lat, decentral_lat]
        )
    return rows


def test_e6_discovery(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "E6 / Table 3 — discovery success vs lookup-server availability",
        [
            "server avail",
            "central ok",
            "decentral ok",
            "central lat s",
            "decentral lat s",
        ],
        rows,
        note=f"{QUERIES} queries per cell; provider always in ad-hoc range",
    )
    write_result("e6_discovery", table)
    world = run_cell(0.5, observe=True)
    write_report(
        "e6_discovery", world,
        params={"availability": 0.5, "queries": QUERIES},
    )

    for row in rows:
        availability, central_ok, decentral_ok = row[0], row[1], row[2]
        # Decentralised discovery is availability-independent.
        assert decentral_ok >= 0.95
        # Centralised success roughly tracks availability.
        assert abs(central_ok - availability) <= 0.25
    # Monotone in availability, and dead at zero.
    centrals = [row[1] for row in rows]
    assert centrals == sorted(centrals)
    assert rows[0][1] == 0.0
    assert rows[-1][1] == 1.0
