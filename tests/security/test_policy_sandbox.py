"""Unit tests for security policies and the sandbox."""

import pytest

from repro.errors import PolicyViolation, SandboxViolation
from repro.security import (
    ExecutionContext,
    InProcessProvider,
    OPEN_POLICY,
    OP_ACCEPT_AGENT,
    OP_ACCEPT_REV,
    OP_SERVE_COD,
    QuotaGrant,
    SecurityPolicy,
    StrictProvider,
)
from repro.sim.metrics import MetricsRegistry


class TestPolicy:
    def test_default_allows_everything(self):
        policy = SecurityPolicy()
        policy.check(OP_ACCEPT_REV, "anyone")
        policy.check(OP_ACCEPT_AGENT)

    def test_operation_whitelist(self):
        policy = SecurityPolicy(allowed_operations=frozenset({OP_SERVE_COD}))
        policy.check(OP_SERVE_COD)
        with pytest.raises(PolicyViolation):
            policy.check(OP_ACCEPT_AGENT)

    def test_principal_whitelist(self):
        policy = SecurityPolicy(allowed_principals=frozenset({"alice"}))
        policy.check(OP_ACCEPT_REV, "alice")
        with pytest.raises(PolicyViolation):
            policy.check(OP_ACCEPT_REV, "mallory")

    def test_unknown_operation_is_programming_error(self):
        with pytest.raises(ValueError):
            SecurityPolicy().check("launch-missiles")

    def test_unknown_operation_in_constructor(self):
        with pytest.raises(ValueError):
            SecurityPolicy(allowed_operations=frozenset({"bogus"}))

    def test_open_policy_unsigned(self):
        assert not OPEN_POLICY.require_signatures


class TestExecutionContext:
    def test_charge_within_budget(self):
        context = ExecutionContext("host", "guest", work_budget=100)
        context.charge(60)
        context.charge(40)
        assert context.work_remaining == 0

    def test_charge_over_budget_raises(self):
        context = ExecutionContext("host", "guest", work_budget=100)
        with pytest.raises(SandboxViolation):
            context.charge(101)

    def test_negative_charge_rejected(self):
        context = ExecutionContext("host", "guest")
        with pytest.raises(ValueError):
            context.charge(-1)

    def test_nan_charge_rejected(self):
        context = ExecutionContext("host", "guest", work_budget=100)
        with pytest.raises(ValueError):
            context.charge(float("nan"))
        assert context.work_used == 0.0

    def test_storage_within_budget(self):
        context = ExecutionContext("host", "guest", storage_budget_bytes=10_000)
        context.store("key", "value")
        assert context.fetch("key") == "value"

    def test_storage_over_budget_raises_and_rolls_back(self):
        context = ExecutionContext("host", "guest", storage_budget_bytes=100)
        with pytest.raises(SandboxViolation):
            context.store("blob", "x" * 1000)
        assert context.fetch("blob") is None

    def test_discard(self):
        context = ExecutionContext("host", "guest")
        context.store("k", 1)
        context.discard("k")
        assert context.fetch("k") is None

    def test_service_lookup(self):
        context = ExecutionContext("host", "guest", services={"echo": len})
        assert context.service("echo") is len
        with pytest.raises(SandboxViolation):
            context.service("missing")


def run_once(provider, guest, *args, grant=QuotaGrant()):
    """One guest run in a fresh session on ``provider``."""
    session = provider.open_session("guest", grant)
    try:
        return provider.execute(session, guest, *args)
    finally:
        provider.close_session(session)


class TestSandbox:
    """Guest containment through the in-process provider."""

    def test_successful_run(self):
        def guest(ctx, x):
            ctx.charge(10)
            return x * 2

        result = run_once(InProcessProvider("host"), guest, 21)
        assert result.ok and result.value == 42
        assert result.work_used == 10

    def test_guest_exception_contained(self):
        def guest(ctx):
            raise ValueError("guest bug")

        result = run_once(InProcessProvider("host"), guest)
        assert not result.ok
        assert result.error_type == "ValueError"
        assert "guest bug" in result.error

    def test_budget_violation_reported(self):
        metrics = MetricsRegistry()
        provider = InProcessProvider("host", metrics=metrics)

        def greedy(ctx):
            ctx.charge(10)

        result = run_once(provider, greedy, grant=QuotaGrant(work_units=5))
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        violations = metrics.counter(
            "security.sandbox_violations", labels={"node": "host"}
        )
        assert violations.value == 1
        # Labeled children roll up into the flat family total.
        assert metrics.counter("security.sandbox_violations").value == 1

    def test_cpu_seconds_mapping(self):
        def guest(ctx):
            ctx.charge(1_000_000)

        # A million work units are one simulated second on a
        # reference-speed (cpu_speed 1.0) host.
        result = run_once(InProcessProvider("host"), guest)
        assert result.metrics.wall_sim_seconds == pytest.approx(1.0)

    def test_execution_counter(self):
        metrics = MetricsRegistry()
        provider = InProcessProvider("host", metrics=metrics)
        for _ in range(3):
            run_once(provider, lambda ctx: None)
        runs = metrics.counter(
            "security.sandbox_runs", labels={"node": "host"}
        )
        assert runs.value == 3


class TestQuotaGrants:
    def test_default_grant_mirrors_legacy_scalars(self):
        # An unmatched principal gets QuotaGrant(), whose budgets are
        # the defaults of the per-policy scalars it replaced.
        grant = SecurityPolicy().grant_for("anyone")
        assert grant == QuotaGrant()
        assert grant.work_units == 1_000_000_000.0
        assert grant.storage_bytes == 1_000_000
        assert grant.service_calls is None
        assert grant.provider == "inprocess"

    def test_star_grant_replaces_the_default(self):
        policy = SecurityPolicy(
            quota_grants={"*": QuotaGrant(work_units=123.0, storage_bytes=456)}
        )
        grant = policy.grant_for("anyone")
        assert grant.work_units == 123.0
        assert grant.storage_bytes == 456

    def test_exact_match_beats_glob(self):
        policy = SecurityPolicy(
            quota_grants={
                "task:*": QuotaGrant(work_units=10.0),
                "task:big": QuotaGrant(work_units=99.0),
            }
        )
        assert policy.grant_for("task:big").work_units == 99.0
        assert policy.grant_for("task:other").work_units == 10.0

    def test_glob_grants_match_in_insertion_order(self):
        policy = SecurityPolicy(
            quota_grants={
                "hostile:*": QuotaGrant(work_units=1.0, provider="strict"),
                "*": QuotaGrant(work_units=2.0),
            }
        )
        assert policy.grant_for("hostile:quota_loop").provider == "strict"
        assert policy.grant_for("task:x").work_units == 2.0


class TestProviders:
    def run_greedy(self, provider, budget=100.0, charge=150.0):
        session = provider.open_session(
            "guest", QuotaGrant(work_units=budget)
        )
        result = provider.execute(
            session, lambda ctx: ctx.charge(charge)
        )
        totals = provider.close_session(session)
        return session, result, totals

    def test_inprocess_overshoots_then_trips(self):
        _, result, totals = self.run_greedy(InProcessProvider("h"))
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        # Post-hoc metering: the final charge lands before the check.
        assert totals.work_units == 150.0

    def test_strict_preempts_at_quota(self):
        _, result, totals = self.run_greedy(StrictProvider("h"))
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        # Preemption clamps metered work to exactly the grant.
        assert totals.work_units == 100.0

    def test_session_lifecycle(self):
        provider = StrictProvider("h")
        session = provider.open_session(
            "guest", QuotaGrant(), now=5.0, cpu_speed=2.0
        )
        assert session.open and session.opened_at == 5.0
        provider.execute(session, lambda ctx: ctx.charge(1_000_000))
        totals = provider.close_session(session, now=9.0)
        assert not session.open and session.closed_at == 9.0
        # 1e6 units at 2x reference speed -> 0.5 wall sim-seconds.
        assert totals.wall_sim_seconds == pytest.approx(0.5)

    def test_service_call_quota_enforced(self):
        provider = StrictProvider("h")
        session = provider.open_session(
            "guest",
            QuotaGrant(service_calls=2),
            services={"ping": lambda: None},
        )

        def flood(ctx):
            while True:
                ctx.service("ping")

        result = provider.execute(session, flood)
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        assert provider.close_session(session).service_calls == 2

    def test_base_exception_never_escapes(self):
        provider = InProcessProvider("h")
        session = provider.open_session("guest", QuotaGrant())

        class Hostile(BaseException):
            pass

        def bomb(ctx):
            raise Hostile("escape attempt")

        result = provider.execute(session, bomb)
        assert not result.ok
        assert "escape attempt" in result.error

    @pytest.mark.parametrize("flavor", [InProcessProvider, StrictProvider])
    def test_nan_charge_is_contained(self, flavor):
        provider = flavor("h")
        session = provider.open_session("guest", QuotaGrant(work_units=100.0))
        result = provider.execute(session, lambda ctx: ctx.charge(float("nan")))
        assert not result.ok
        assert result.error_type == "ValueError"
        # The NaN never landed, so the budget still binds.
        result = provider.execute(session, lambda ctx: ctx.charge(1e12))
        assert not result.ok
        assert result.error_type == "SandboxViolation"
