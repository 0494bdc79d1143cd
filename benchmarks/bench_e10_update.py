"""E10 / Table 5 — dynamic middleware self-update via COD.

A phone's discovery component is upgraded while a peer keeps probing it
with discovery queries.  Hot swap (fetch new component via COD, swap in
place) is compared with the traditional full reinstall (stop the whole
stack, fetch every component, restart).

Expected shape: the hot swap moves only the changed component's bytes,
its service gap is the swap window only, and (near-)zero probes are
lost; the reinstall moves the whole stack and drops probes for the
entire fetch.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.core import (
    ClientServer,
    CodeOnDemand,
    Discovery,
    RemoteEvaluation,
    World,
    component_unit,
    mutual_trust,
    standard_host,
)
from repro.lmu import CodeRepository, Version
from repro.net import GPRS, LAN, Message, Position

from _common import instrument, once, run_process, write_report, write_result

PROBE_INTERVAL = 0.5
PROBES = 60


class DiscoveryV2(Discovery):
    """The shipped upgrade."""

    version = Version(1, 1, 0)
    code_size = 5_000


class ClientServerV2(ClientServer):
    version = Version(1, 1, 0)


class RemoteEvaluationV2(RemoteEvaluation):
    version = Version(1, 1, 0)


def build(seed):
    world = World(seed=seed)
    world.transport._rng.random = lambda: 0.999
    repository = CodeRepository()
    repository.publish(component_unit(DiscoveryV2, version="1.1.0"))
    repository.publish(component_unit(ClientServerV2, version="1.1.0"))
    repository.publish(component_unit(RemoteEvaluationV2, version="1.1.0"))
    phone = standard_host(world, "phone", Position(0, 0), [GPRS])
    server = standard_host(
        world, "server", Position(0, 0), [LAN], fixed=True,
        repository=repository,
    )
    mutual_trust(phone, server)
    phone.node.interface("gprs").attach()
    return world, phone, server


def run_strategy(strategy, seed=1010, observe=False):
    world, phone, server = build(seed)
    if observe:
        instrument(world)

    def prober():
        for _ in range(PROBES):
            yield server.send(
                Message("server", "phone", "disc.request", payload={
                    "query_id": 0,
                    "service_type": "probe",
                    "requester": "server",
                }),
                reliable=False,
            )
            yield world.env.timeout(PROBE_INTERVAL)

    def updater():
        yield world.env.timeout(2.0)
        update = phone.component("update")
        if strategy == "hot-swap":
            report = yield from update.hot_swap(
                "discovery", "server", "component:discovery"
            )
        else:
            report = yield from update.full_reinstall(
                "server",
                {
                    "discovery": "component:discovery",
                    "cs": "component:cs",
                    "rev": "component:rev",
                },
            )
        return report

    world.env.process(prober())
    update_process = world.env.process(updater())
    report = world.run(until=update_process)
    world.run(until=PROBES * PROBE_INTERVAL + 5.0)
    if observe:
        return world
    return report


def run_experiment():
    hot = run_strategy("hot-swap")
    reinstall = run_strategy("reinstall")
    rows = [
        [
            report.strategy,
            report.bytes_transferred,
            report.downtime_s,
            report.requests_lost,
            report.new_version,
        ]
        for report in (hot, reinstall)
    ]
    return rows, hot, reinstall


def test_e10_update(benchmark):
    rows, hot, reinstall = once(benchmark, run_experiment)
    table = render_table(
        "E10 / Table 5 — middleware update: hot swap vs full reinstall",
        ["strategy", "bytes", "downtime s", "probes lost", "installed"],
        rows,
        note=f"discovery probes every {PROBE_INTERVAL}s during the update",
    )
    write_result("e10_update", table)
    world = run_strategy("hot-swap", observe=True)
    write_report("e10_update", world, params={"strategy": "hot-swap"})

    # Hot swap ships one component; reinstall ships the stack.
    assert hot.bytes_transferred < reinstall.bytes_transferred
    # Service interruption: hot swap's window is tiny.
    assert hot.downtime_s < reinstall.downtime_s / 2
    assert hot.requests_lost <= 1
    assert reinstall.requests_lost > hot.requests_lost
    # Both end on the new version.
    assert "1.1.0" in hot.new_version
    assert "discovery@1.1.0" in reinstall.new_version
