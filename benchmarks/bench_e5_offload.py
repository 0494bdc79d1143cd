"""E5 / Figure 3 — REV computation offloading.

A slow handheld (0.1x reference CPU) either grinds a task locally or
REV-ships it to a 4x server, over a fast free link (Wi-Fi) and a slow
metered one (GPRS).  Task size is swept; the crossover work size —
beyond which offloading wins — is located for each link.

Expected shape: local wins for tiny tasks; REV wins beyond a crossover;
the crossover sits at much smaller tasks on the faster link.
"""

from __future__ import annotations

from repro.analysis import crossover, render_table
from repro.apps import run_local, run_offloaded
from repro.core import World, mutual_trust, standard_host
from repro.net import GPRS, LAN, Position, WIFI_ADHOC

from _common import instrument, once, run_process, write_report, write_result

WORK_SIZES = [5_000, 50_000, 200_000, 1_000_000, 5_000_000, 20_000_000, 80_000_000]
DEVICE_SPEED = 0.1
SERVER_SPEED = 4.0


def build(link_name):
    world = World(seed=505)
    world.transport._rng.random = lambda: 0.999
    if link_name == "wifi":
        device = standard_host(
            world, "device", Position(0, 0), [WIFI_ADHOC], cpu_speed=DEVICE_SPEED
        )
        server = standard_host(
            world, "server", Position(20, 0), [WIFI_ADHOC], fixed=True,
            cpu_speed=SERVER_SPEED,
        )
    else:
        device = standard_host(
            world, "device", Position(0, 0), [GPRS], cpu_speed=DEVICE_SPEED
        )
        server = standard_host(
            world, "server", Position(0, 0), [LAN], fixed=True,
            cpu_speed=SERVER_SPEED,
        )
        device.node.interface("gprs").attach()
    mutual_trust(device, server)
    return world, device, server


def measure(link_name, work, where, observe=False):
    world, device, server = build(link_name)
    if observe:
        instrument(world)

    def go():
        if where == "local":
            report = yield from run_local(device, work)
        else:
            report = yield from run_offloaded(device, "server", work)
        return report

    report = run_process(world, go())
    if observe:
        return world
    return report.elapsed_s


def run_experiment():
    rows = []
    curves = {}
    for link_name in ("wifi", "gprs"):
        local_points = []
        remote_points = []
        for work in WORK_SIZES:
            local_s = measure(link_name, work, "local")
            remote_s = measure(link_name, work, "offload")
            local_points.append((work, local_s))
            remote_points.append((work, remote_s))
            rows.append([link_name, work / 1e6, local_s, remote_s])
        curves[link_name] = (local_points, remote_points)
    return rows, curves


def test_e5_offload(benchmark):
    rows, curves = once(benchmark, run_experiment)
    table = render_table(
        "E5 / Figure 3 — task completion time: local vs REV-offloaded",
        ["link", "work Mu", "local s", "REV s"],
        rows,
        note=f"device {DEVICE_SPEED}x, server {SERVER_SPEED}x reference CPU; code 30kB",
    )
    crossovers = {}
    for link_name, (local_points, remote_points) in curves.items():
        crossovers[link_name] = crossover(local_points, remote_points)
    summary = "crossover work: " + ", ".join(
        f"{name}={value/1e6 if value else float('nan'):.2f}M units"
        for name, value in crossovers.items()
    )
    write_result("e5_offload", table + "\n" + summary)
    world = measure("wifi", WORK_SIZES[3], "offload", observe=True)
    write_report(
        "e5_offload", world,
        params={"link": "wifi", "work": WORK_SIZES[3], "where": "offload"},
    )

    for link_name, (local_points, remote_points) in curves.items():
        # Local wins the smallest task; REV wins the biggest.
        assert local_points[0][1] < remote_points[0][1]
        assert remote_points[-1][1] < local_points[-1][1]
        assert crossovers[link_name] is not None
    # Faster link -> earlier crossover.
    assert crossovers["wifi"] < crossovers["gprs"]
