"""Guests on a host are preempted at their work quota.

A host runs every guest under its principal's
:class:`~repro.security.QuotaGrant`, and a charge that would cross the
grant's ``work_units`` never lands: the guest's metered work stops at
exactly the grant, both for a one-shot guest (``host.run_guest``) and
for an agent's stay (``AgentContext.execute``).
"""

from repro.core import Agent
from repro.security import QuotaGrant, SecurityPolicy
from tests.core.conftest import run

GRANT = QuotaGrant(work_units=100.0)


def quota_policy():
    return SecurityPolicy(quota_grants={"*": GRANT})


class TwoSteps(Agent):
    """Computes 60 units twice: the second step crosses a 100 grant."""

    def on_arrival(self, context):
        yield from context.execute(60)
        yield from context.execute(60)


def test_run_guest_is_clamped_at_the_grant(adhoc_pair):
    a, _ = adhoc_pair
    a.policy = quota_policy()

    def greedy(context):
        context.charge(60)
        context.charge(60)

    result = a.run_guest(greedy, "guest")
    assert not result.ok
    assert result.error_type == "SandboxViolation"
    assert result.work_used == GRANT.work_units
    assert result.metrics.work_units == GRANT.work_units


def test_agent_stay_is_clamped_at_the_grant(adhoc_pair):
    a, _ = adhoc_pair
    a.policy = quota_policy()
    closed = []
    close = a.close_guest_session

    def record(*args):
        totals = close(*args)
        closed.append(totals)
        return totals

    a.close_guest_session = record
    runtime = a.component("agents")
    agent_id = runtime.launch(TwoSteps())

    def await_agent():
        return (yield runtime.completion(agent_id))

    final = run(a.world, await_agent())
    assert final["outcome"] == "killed"
    # One stay, one session, closed once, metered at exactly the grant.
    assert [totals.work_units for totals in closed] == [GRANT.work_units]
