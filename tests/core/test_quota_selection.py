"""Quota-priced paradigm selection: grants steer the selector.

Acceptance criterion for quota grants: on two otherwise
bit-identical worlds — same seed, same topology, same link, same task —
the :class:`~repro.core.adaptation.ParadigmSelector` must rank
paradigms *differently* when the executing side's
:class:`~repro.security.QuotaGrant` for the task's principal differs,
because a starved compute quota prices in the predicted preemption
cost of running the guest there.
"""

import dataclasses

import pytest

from repro.core import (
    InvocationTask,
    LocalExecution,
    PARADIGM_LOCAL,
    PARADIGM_REV,
    ParadigmSelector,
    RemoteEvaluation,
    TaskProfile,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
from repro.net import Position, WIFI_ADHOC
from repro.security import QuotaGrant
from tests.core.conftest import loss_free, run

#: Enough declared work that a starved remote grant's penalty dwarfs
#: the local-CPU disadvantage.
CRUNCH_WORK = 5_000_000.0


def make_world():
    world = loss_free(World(seed=11))
    device = standard_host(
        world, "device", Position(0, 0), [WIFI_ADHOC], cpu_speed=0.5
    )
    server = standard_host(
        world,
        "server",
        Position(20, 0),
        [WIFI_ADHOC],
        fixed=True,
        cpu_speed=2.0,
    )
    mutual_trust(device, server)
    device.add_component(LocalExecution())
    return world, device, server


def crunch_task():
    def factory():
        def body(ctx, payload=None):
            ctx.charge(CRUNCH_WORK)
            return "crunched"

        return body

    return InvocationTask(
        name="crunch",
        factory=factory,
        work_units=CRUNCH_WORK,
        code_bytes=4_000,
        request_bytes=64,
        reply_bytes=64,
        timeout=60.0,
    )


def starve(host, principal, work_units):
    host.policy = dataclasses.replace(
        host.policy,
        quota_grants={principal: QuotaGrant(work_units=work_units)},
    )


def invoke(world, device, task):
    selector = ParadigmSelector(available=[PARADIGM_LOCAL, PARADIGM_REV])
    return run(
        world, selector.select_and_invoke(device, task, "server")
    )


class TestQuotaPricedSelection:
    def test_generous_remote_grant_offloads(self):
        world, device, server = make_world()
        task = crunch_task()
        provision_task(server, task)
        outcome = invoke(world, device, task)
        # Fast server, cheap link, no quota pressure: REV wins.
        assert outcome.paradigm == PARADIGM_REV

    def test_starved_remote_grant_flips_to_local(self):
        world, device, server = make_world()
        task = crunch_task()
        provision_task(server, task)
        # Identical link, identical task — only the server's grant for
        # this task's principal differs from the test above.
        starve(server, "task:crunch", 1_000.0)
        outcome = invoke(world, device, task)
        assert outcome.paradigm == PARADIGM_LOCAL

    def test_starved_local_grant_still_offloads(self):
        world, device, server = make_world()
        task = crunch_task()
        provision_task(server, task)
        starve(device, "task:crunch", 1_000.0)
        outcome = invoke(world, device, task)
        assert outcome.paradigm == PARADIGM_REV


class TestEstimatorPenalty:
    def profile(self, **overrides):
        values = dict(
            interactions=1,
            request_bytes=64,
            reply_bytes=64,
            code_bytes=4_000,
            result_bytes=64,
            work_units=CRUNCH_WORK,
            local_speed=0.5,
            remote_speed=2.0,
        )
        values.update(overrides)
        return TaskProfile(**values)

    def test_no_quota_means_no_penalty(self):
        lenient = self.profile(remote_work_quota=None)
        capped = self.profile(remote_work_quota=CRUNCH_WORK)
        link = _fake_link()
        assert RemoteEvaluation.estimate(
            lenient, link
        ).time_s == pytest.approx(
            RemoteEvaluation.estimate(capped, link).time_s
        )

    def test_starved_quota_adds_linear_penalty(self):
        starved = self.profile(remote_work_quota=1_000.0)
        lenient = self.profile(remote_work_quota=None)
        link = _fake_link()
        excess = CRUNCH_WORK - 1_000.0
        delta = (
            RemoteEvaluation.estimate(starved, link).time_s
            - RemoteEvaluation.estimate(lenient, link).time_s
        )
        assert delta == pytest.approx(excess * 1.0e-4)

    def test_local_estimator_reads_local_quota(self):
        starved = self.profile(local_work_quota=1_000.0)
        lenient = self.profile(local_work_quota=None)
        delta = (
            LocalExecution.estimate(starved, None).time_s
            - LocalExecution.estimate(lenient, None).time_s
        )
        assert delta > 0


def _fake_link():
    world, device, server = make_world()
    return world.network.best_link(device.node, server.node)
