"""Hostile-guest containment invariants and determinism.

The tier-1 guarantees of the hostile-guest fault family: benign
completion survives the attacks, every hostile guest is terminated by
its :class:`~repro.security.QuotaGrant` with ``SandboxViolation``
(nothing escapes the providers), the whole hostile trajectory is a
pure function of the seed, and an *unarmed* hostile run is
bit-identical to the plain chaos harness — arming the machinery costs
nothing until a plan actually fires.
"""

from repro.faults import (
    FaultPlan,
    HOSTILE_GRANT,
    hostile_plan,
    run_chaos,
    run_hostile,
)

from .invariants import verify_hostile_containment


class TestContainmentInvariants:
    def test_benign_completion_survives_hostile_guests(self):
        outcome = verify_hostile_containment(seed=7)
        assert outcome.completion_rate >= 0.95

    def test_every_guest_terminated_nothing_escapes(self):
        outcome = run_hostile(seed=7)
        summary = outcome.summary
        guests = summary["hostile.guests"]
        # Standard plan: quota_loop on one server, storage_bomb on
        # every server, service_flood on one — at least 3 launches.
        assert guests >= 3.0
        assert summary["hostile.terminated"] == guests
        assert summary["hostile.escapes"] == 0.0

    def test_quota_usage_lands_in_labeled_metrics(self):
        outcome = run_hostile(seed=7)
        metrics = outcome.report["metrics"]
        # Per-node attribution of the attack surface...
        assert metrics['hostile.guests{node="server-0"}'] >= 1.0
        assert metrics['hostile.terminated{node="server-0"}'] >= 1.0
        # ...and the provider-side security families it consumed.
        assert metrics['security.sandbox_violations{node="server-0"}'] >= 1.0
        assert any(
            key.startswith("security.guest_storage_peak")
            for key in metrics
        )

    def test_strict_grant_clamps_metered_work(self):
        outcome = run_hostile(seed=7)
        metrics = outcome.report["metrics"]
        # The strict provider preempts at the quota: the hungriest
        # hostile guest metered exactly the grant, never more.
        assert metrics["hostile.work_units.max"] == HOSTILE_GRANT.work_units

    def test_service_flood_capped_at_grant(self):
        outcome = run_hostile(seed=7)
        summary = outcome.summary
        assert (
            summary["security.guest_service_calls"]
            == HOSTILE_GRANT.service_calls
        )


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = run_hostile(seed=13)
        second = run_hostile(seed=13)
        assert first.report == second.report

    def test_different_seed_differs(self):
        assert run_hostile(seed=13).summary != run_hostile(seed=14).summary

    def test_unarmed_run_matches_plain_chaos(self):
        # Same fleet shape, empty plans: the hostile harness (strict
        # grants armed but never fired) must be bit-identical to the
        # plain chaos harness — the substrate refactor costs nothing
        # on the benign path.
        hostile = run_hostile(seed=21, clients=3, servers=2, hostile=FaultPlan())
        chaos = run_chaos(seed=21, clients=3, servers=2, plan=FaultPlan())
        assert hostile.summary == chaos.summary
        assert hostile.completed == chaos.completed
        assert hostile.duration_s == chaos.duration_s


class TestPlanShape:
    def test_standard_plan_covers_all_three_bodies(self):
        plan = hostile_plan(servers=2)
        guests = [spec.guest for spec in plan]
        assert sorted(set(guests)) == [
            "quota_loop",
            "service_flood",
            "storage_bomb",
        ]

    def test_crashed_target_is_skipped_not_fatal(self):
        # A hostile guest aimed at a down node is a no-op, not a crash
        # of the injector.
        plan = FaultPlan()
        plan.crash(["server-0"], at=5.0, down_s=30.0)
        plan.hostile_guest(["server-0"], at=10.0, guest="quota_loop")
        outcome = run_hostile(seed=3, hostile=plan)
        assert outcome.summary.get("hostile.guests", 0.0) == 0.0
        assert outcome.summary.get("hostile.escapes", 0.0) == 0.0
