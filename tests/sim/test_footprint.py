"""What a host costs the bookkeeping: exact counts, no timer.

A fleet past the metrics registry's label cap must not add a labeled
key per host (over-cap series share their family's ``__other__``
child), a host's one-shot key stream must not outlive its key pair,
and a provisioned task must not be copied per server (every server
shares the task's one code unit and one service entry).  Each is
counted on two fleets, one four times the other, so a per-host leak
shows as a difference.
"""

import pytest

from repro import World, standard_host
from repro.core import (
    InvocationTask,
    ParadigmSelector,
    mutual_trust,
    provision_task,
)
from repro.lmu import CodeUnit
from repro.net import LAN, WIFI_ADHOC, Position
from repro.sim.metrics import DEFAULT_LABEL_CAPACITY, OVERFLOW_LABEL
from tests.core.conftest import loss_free, run

SMALL = DEFAULT_LABEL_CAPACITY + 16
LARGE = 4 * SMALL


def fleet(hosts: int) -> World:
    world = World(seed=1)
    for index in range(hosts):
        standard_host(
            world, f"h{index}", Position(10.0 * index, 0.0), [WIFI_ADHOC]
        )
    return world


def families(registry) -> list:
    return sorted({family for family, _items in registry._labeled})


@pytest.fixture(scope="module")
def fleets():
    return {hosts: fleet(hosts) for hosts in (SMALL, LARGE)}


class TestLabelFootprint:
    def test_labeled_keys_do_not_grow_with_hosts(self, fleets):
        small, large = (fleets[hosts].metrics for hosts in (SMALL, LARGE))
        assert families(small) == families(large)
        per_host = len(families(small))
        assert per_host > 0
        expected = per_host * (DEFAULT_LABEL_CAPACITY + 1)
        assert len(small._labeled) == expected
        assert len(large._labeled) == expected

    def test_every_family_folds_into_one_other_child(self, fleets):
        registry = fleets[LARGE].metrics
        for family in families(registry):
            children = registry.labeled_children(family)
            assert len(children) == DEFAULT_LABEL_CAPACITY + 1
            assert OVERFLOW_LABEL in children

    @pytest.mark.parametrize("hosts", [SMALL, LARGE])
    def test_overflow_counts_each_folded_series_once(self, fleets, hosts):
        registry = fleets[hosts].metrics
        overflow = registry.counter("obs.labels.overflow")
        folded = len(families(registry)) * (hosts - DEFAULT_LABEL_CAPACITY)
        assert overflow.value == folded
        # Asking again for every host's series neither adds a key nor
        # counts a series twice.
        keys = len(registry._labeled)
        for family in families(registry):
            for index in range(hosts):
                registry.counter(family, labels={"node": f"h{index}"})
        assert overflow.value == folded
        assert len(registry._labeled) == keys


TASKS = 12
SERVERS = 6


def scaled_task(factor: int) -> InvocationTask:
    def factory():
        def body(ctx, payload=None):
            ctx.charge(1_000)
            return {"task": factor, "value": factor * (payload or {})["n"]}

        return body

    return InvocationTask(
        name=f"scale-{factor}",
        factory=factory,
        payload={"n": 7},
        work_units=1_000,
        code_bytes=2_000,
    )


def server_fleet(servers: int, tasks: list) -> World:
    world = loss_free(World(seed=1))
    device = standard_host(
        world, "device", Position(0.0, 0.0), [LAN], fixed=True
    )
    fleet = [
        standard_host(
            world,
            f"srv-{index}",
            Position(10.0 * index, 50.0),
            [LAN],
            fixed=True,
        )
        for index in range(servers)
    ]
    mutual_trust(device, *fleet)
    for server in fleet:
        for task in tasks:
            provision_task(server, task)
    return world


@pytest.fixture(scope="module")
def provisioned():
    tasks = [scaled_task(factor) for factor in range(1, TASKS + 1)]
    worlds = {
        servers: server_fleet(servers, tasks)
        for servers in (SERVERS, 4 * SERVERS)
    }
    return tasks, worlds


def servers_of(world) -> list:
    return [
        host for name, host in world.hosts.items() if name.startswith("srv-")
    ]


class TestProvisioningFootprint:
    def test_every_server_shares_each_tasks_objects(self, provisioned):
        tasks, worlds = provisioned
        for task in tasks:
            unit = task.unit()
            entry = task.service_entry()
            for world in worlds.values():
                for server in servers_of(world):
                    # The entry holds the one handler closure.
                    assert server.services[task.name] is entry
                    assert server.repository.latest(task.name) is unit

    def test_fleet_holds_one_code_unit_per_task(self, provisioned):
        tasks, worlds = provisioned
        every = set()
        for servers, world in worlds.items():
            held = [
                unit
                for server in servers_of(world)
                for units in server.repository._catalog.values()
                for unit in units
            ]
            assert len(held) == servers * TASKS
            assert all(isinstance(unit, CodeUnit) for unit in held)
            assert len({id(unit) for unit in held}) == TASKS
            every.update(id(unit) for unit in held)
        assert len(every) == TASKS

    def test_cs_and_cod_answer_from_different_servers(self, provisioned):
        tasks, worlds = provisioned
        world = worlds[SERVERS]
        device = world.hosts["device"]
        task = tasks[4]
        for kind, target in (("cs", "srv-1"), ("cod", f"srv-{SERVERS - 1}")):
            selector = ParadigmSelector(available=[kind])
            outcome = run(
                world, selector.select_and_invoke(device, task, target)
            )
            assert outcome.paradigm == kind
            assert outcome.result == {"task": 5, "value": 35}
        assert world.metrics.counter("paradigm.cs.served").value == 1
        assert world.metrics.counter("cod.fetches").value == 1


class TestKeyMinting:
    def test_no_key_stream_is_kept(self, fleets):
        for hosts, world in fleets.items():
            assert not [
                name
                for name in world.streams._streams
                if name.startswith("keys.")
            ]

    def test_minted_keys_are_pinned(self):
        # Keys feed capsule sizes, trust decisions and run digests: a
        # change to how a host mints its key pair must show here.
        world = World(seed=1)
        alice = standard_host(world, "alice")
        bob = standard_host(world, "bob")
        assert alice.keypair.public_key.fingerprint() == "502f190468d6eca0"
        assert bob.keypair.public_key.fingerprint() == "fad2f20898551abf"
