"""E4 / Table 2 — shopping agent vs interactive browsing.

A handset compares prices across ``k`` web shops and buys the cheapest
offer, once by interactive CS browsing over the wireless link and once
by dispatching a shopping agent.  Both tariff models are exercised:
GPRS (per megabyte) and GSM dial-up (per minute, with the handset
attaching for the session).

Expected shape: the agent cuts wireless bytes, connection time, and
money by a factor that grows with ``k``.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.apps import make_vendor, shop_interactively, shop_with_agent
from repro.core import World, mutual_trust, standard_host
from repro.net import DIALUP, GPRS, LAN, Position

from _common import instrument, once, run_process, write_report, write_result

VENDOR_COUNTS = [2, 5, 8]


def build(tech, vendor_count, seed):
    world = World(seed=seed)
    world.transport._rng.random = lambda: 0.999
    handset = standard_host(
        world, "handset", Position(0, 0), [tech], cpu_speed=0.2
    )
    vendors = []
    for index in range(vendor_count):
        vendor = standard_host(
            world, f"shop{index}", Position(0, 0), [LAN], fixed=True
        )
        make_vendor(vendor, {"camera": 450.0 - 11.0 * index})
        vendors.append(vendor)
    mutual_trust(handset, *vendors)
    return world, handset, [vendor.id for vendor in vendors]


def run_session(tech, vendor_count, strategy, seed=404, observe=False):
    world, handset, vendor_ids = build(tech, vendor_count, seed)
    if observe:
        instrument(world)

    def go():
        setup = handset.node.interface(tech.name).attach()
        yield world.env.timeout(setup)
        if strategy == "agent":
            final = yield from shop_with_agent(handset, "camera", vendor_ids)
            assert final["outcome"] == "completed"
            assert final["receipt"] is not None
        else:
            report = yield from shop_interactively(
                handset, "camera", vendor_ids, think_time_s=3.0
            )
            assert report.receipt is not None
        handset.node.interface(tech.name).detach()

    run_process(world, go())
    if observe:
        return world
    costs = handset.node.costs
    connected = sum(costs.connected_seconds.values())
    return costs.wireless_bytes(), connected, costs.money


def run_experiment():
    rows = []
    for tech in (GPRS, DIALUP):
        for vendor_count in VENDOR_COUNTS:
            browse = run_session(tech, vendor_count, "browse")
            agent = run_session(tech, vendor_count, "agent")
            saving = browse[2] / agent[2] if agent[2] > 0 else float("inf")
            rows.append(
                [
                    tech.name,
                    vendor_count,
                    browse[0],
                    agent[0],
                    browse[1],
                    agent[1],
                    browse[2],
                    agent[2],
                    saving,
                ]
            )
    return rows


def test_e4_shopping(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "E4 / Table 2 — m-commerce session cost: interactive browsing vs shopping agent",
        [
            "link",
            "shops",
            "brws B",
            "agent B",
            "brws conn s",
            "agent conn s",
            "brws $",
            "agent $",
            "saving x",
        ],
        rows,
        note="5 catalogue pages per shop browsed; agent hops ride the fixed network",
    )
    write_result("e4_shopping", table)
    world = run_session(GPRS, 2, "agent", observe=True)
    write_report(
        "e4_shopping", world,
        params={"link": "gprs", "shops": 2, "strategy": "agent"},
    )

    for row in rows:
        _link, _k, browse_bytes, agent_bytes = row[0], row[1], row[2], row[3]
        browse_conn, agent_conn, browse_money, agent_money = row[4:8]
        assert agent_bytes < browse_bytes
        assert agent_conn < browse_conn
        assert agent_money < browse_money
    # The saving factor grows with the number of shops (per tariff).
    gprs = [row for row in rows if row[0] == GPRS.name]
    dialup = [row for row in rows if row[0] == DIALUP.name]
    for series in (gprs, dialup):
        factors = [row[8] for row in series]
        assert factors[-1] > factors[0]
