"""``select_and_invoke`` ranks exactly what its components' estimates say.

Each case builds a small world (a GPRS device carrying all five
paradigm components, LAN servers), works out the selector's inputs by
hand — link, speeds, both sides' quota grants, metered work — builds
the :class:`TaskProfile` from them afresh, and prices every installed
paradigm with its component class's ``estimate``.  The selector's
ranking, winning estimate and chosen paradigm must equal those
estimates sorted by composite, ties in ``available`` order.
"""

import pytest

from repro.core import (
    CostWeights,
    InvocationTask,
    LocalExecution,
    ParadigmSelector,
    TaskProfile,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
from repro.core.adaptation import PARADIGM_CLASSES
from repro.net import GPRS, LAN, Position
from tests.core.conftest import loss_free, run

ALL_FIVE = ["cs", "rev", "cod", "ma", "local"]


def make_task(name, declared, charged, **fields):
    def factory():
        def body(ctx, payload=None):
            ctx.charge(charged)
            return {"task": name, "payload": payload}

        return body

    return InvocationTask(
        name=name, factory=factory, work_units=declared, payload=3, **fields
    )


def make_world(task, servers=2, seed=5):
    world = loss_free(World(seed=seed))
    device = standard_host(
        world, "device", Position(0, 0), [GPRS], cpu_speed=0.2,
        quota_bytes=300_000,
    )
    device.node.interface(GPRS.name).attach()
    device.add_component(LocalExecution())
    hosts = [
        standard_host(
            world, f"srv-{slot}", Position(0, 10.0 * slot), [LAN],
            fixed=True, cpu_speed=2.0,
        )
        for slot in range(servers)
    ]
    mutual_trust(device, *hosts)
    for server in hosts:
        provision_task(server, task)
    return world, device, [server.id for server in hosts]


def expected_ranking(selector, device, task, target, weights):
    """Price every installed paradigm on a freshly built profile."""
    targets = [target] if isinstance(target, str) else list(target)
    world = device.world
    peer = world.hosts[targets[0]]
    link = world.network.best_link(device.node, peer.node)
    principal = f"task:{task.name}"
    observed = device.observed_guest_work(task.name)
    if observed is None:
        observed = peer.observed_guest_work(task.name)
    profile = TaskProfile(
        interactions=max(1, task.interactions) * len(targets),
        request_bytes=task.request_bytes,
        reply_bytes=task.reply_bytes,
        code_bytes=task.code_bytes,
        result_bytes=task.result_bytes,
        work_units=max(task.work_units, observed or 0.0),
        local_speed=device.node.cpu_speed,
        remote_speed=peer.node.cpu_speed,
        expected_reuses=task.expected_reuses,
        hosts_to_visit=len(targets),
        state_bytes=task.state_bytes,
        local_work_quota=device.policy.grant_for(principal).work_units,
        remote_work_quota=peer.policy.grant_for(principal).work_units,
    )
    estimates = []
    for kind in selector.available:
        component = device.paradigm_component(kind, required=False)
        if component is not None:
            estimates.append(type(component).estimate(profile, link))
    return profile, sorted(estimates, key=lambda e: e.composite(weights))


def select(world, selector, device, task, target, weights):
    return run(
        world,
        selector.select_and_invoke(device, task, target, weights=weights),
    )


def assert_ranked_as_estimated(world, selector, device, task, target, weights):
    profile, expected = expected_ranking(
        selector, device, task, target, weights
    )
    outcome = select(world, selector, device, task, target, weights)
    assert outcome.ranking == expected
    assert outcome.estimate == expected[0]
    assert outcome.paradigm == expected[0].paradigm
    return profile, outcome


WEIGHTS = [
    CostWeights(),
    CostWeights(time=1.0, money=0.0),
    CostWeights(time=0.2, money=1.0, energy=0.005, traffic=1e-6),
]


class TestRankingMatchesEstimators:
    @pytest.mark.parametrize("weights", WEIGHTS)
    @pytest.mark.parametrize("servers", [1, 2])
    @pytest.mark.parametrize("work", [20_000, 2_000_000])
    def test_fresh_task(self, weights, servers, work):
        task = make_task("fresh", float(work), work, interactions=3)
        world, device, targets = make_world(task, servers)
        target = targets[0] if servers == 1 else targets
        assert_ranked_as_estimated(
            world, ParadigmSelector(ALL_FIVE), device, task, target, weights
        )

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_work_metered_on_the_device(self, weights):
        # Under-declared: the guest charges 40x what it declares.
        task = make_task("heavy", 5_000.0, 200_000, expected_reuses=4)
        world, device, targets = make_world(task)
        select(world, ParadigmSelector(["local"]), device, task, None, weights)
        assert device.observed_guest_work("heavy") == 200_000
        profile, _ = assert_ranked_as_estimated(
            world, ParadigmSelector(ALL_FIVE), device, task, targets[0],
            weights,
        )
        assert profile.work_units == 200_000

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_work_metered_only_on_the_peer(self, weights):
        task = make_task("remote-heavy", 5_000.0, 150_000, interactions=2)
        world, device, targets = make_world(task)
        select(
            world, ParadigmSelector(["rev"]), device, task, targets[0], weights
        )
        assert device.observed_guest_work("remote-heavy") is None
        server = world.hosts[targets[0]]
        assert server.observed_guest_work("remote-heavy") == 150_000
        profile, _ = assert_ranked_as_estimated(
            world, ParadigmSelector(ALL_FIVE), device, task, targets[0],
            weights,
        )
        assert profile.work_units == 150_000


class LocalTwin(LocalExecution):
    """A plugged-in paradigm priced exactly like ``local``: its class is
    all it needs to be ranked."""

    kind = "local-twin"
    paradigm = "local-twin"


class TestTiesKeepAvailableOrder:
    @pytest.mark.parametrize(
        "available",
        [
            ["local-twin", "cs", "rev", "cod", "ma", "local"],
            ["local", "cs", "rev", "cod", "ma", "local-twin"],
        ],
    )
    def test_tied_paradigms_rank_in_available_order(self, available):
        task = make_task("tie", 1_000.0, 1_000)
        world, device, targets = make_world(task)
        device.add_component(LocalTwin())
        _, outcome = assert_ranked_as_estimated(
            world, ParadigmSelector(available), device, task, targets[0],
            CostWeights(),
        )
        tied = [
            estimate.paradigm
            for estimate in outcome.ranking
            if estimate.paradigm in ("local", "local-twin")
        ]
        assert tied == [k for k in available if k in ("local", "local-twin")]
        composites = {
            estimate.paradigm: estimate.composite(CostWeights())
            for estimate in outcome.ranking
        }
        assert composites["local"] == composites["local-twin"]


def teardown_module():
    """Unplug ``local-twin`` so later tests rank the built-ins only."""
    del PARADIGM_CLASSES[LocalTwin.paradigm]
