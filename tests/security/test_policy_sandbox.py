"""Unit tests for security policies and the sandbox."""

import pytest

from repro.core import World, standard_host
from repro.errors import PolicyViolation, SandboxViolation
from repro.net import LAN, Position
from repro.security import (
    ExecutionContext,
    OPEN_POLICY,
    OP_ACCEPT_AGENT,
    OP_ACCEPT_REV,
    OP_SERVE_COD,
    QuotaGrant,
    SecurityPolicy,
)
from repro.security.policy import DEFAULT_GRANT


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
        context = ExecutionContext("host", "guest", QuotaGrant(work_units=100))
        context.charge(60)
        context.charge(40)
        assert context.work_remaining == 0

    def test_charge_over_budget_raises(self):
        context = ExecutionContext("host", "guest", QuotaGrant(work_units=100))
        context.charge(30)
        with pytest.raises(SandboxViolation, match="preempted at work quota"):
            context.charge(101)
        # The crossing charge never lands: usage is clamped to the quota.
        assert context.work_used == 100

    def test_budgets_come_from_the_default_grant(self):
        context = ExecutionContext("host", "guest")
        assert context.work_budget == DEFAULT_GRANT.work_units
        assert context.storage_budget_bytes == DEFAULT_GRANT.storage_bytes
        assert context.service_call_budget == DEFAULT_GRANT.service_calls

    def test_negative_charge_rejected(self):
        context = ExecutionContext("host", "guest")
        with pytest.raises(ValueError):
            context.charge(-1)

    def test_nan_charge_rejected(self):
        context = ExecutionContext("host", "guest", QuotaGrant(work_units=100))
        with pytest.raises(ValueError):
            context.charge(float("nan"))
        assert context.work_used == 0.0

    def test_storage_within_budget(self):
        context = ExecutionContext(
            "host", "guest", QuotaGrant(storage_bytes=10_000)
        )
        context.store("key", "value")
        assert context.fetch("key") == "value"

    def test_storage_over_budget_raises_and_rolls_back(self):
        context = ExecutionContext(
            "host", "guest", QuotaGrant(storage_bytes=100)
        )
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


def run_once(guest, *args, grant=DEFAULT_GRANT):
    """One guest run in a fresh context."""
    return ExecutionContext("host", "guest", grant).run(guest, *args)


def lone_host(grant=DEFAULT_GRANT):
    """A host whose policy hands every principal ``grant``."""
    host = standard_host(World(seed=1), "host", Position(0, 0), [LAN])
    host.policy = SecurityPolicy(quota_grants={"*": grant})
    return host


class TestSandbox:
    """Guest containment: ``ExecutionContext.run`` and ``host.run_guest``."""

    def test_successful_run(self):
        def guest(ctx, x):
            ctx.charge(10)
            return x * 2

        result = run_once(guest, 21)
        assert result.ok and result.value == 42
        assert result.work_used == 10

    def test_guest_exception_contained(self):
        def guest(ctx):
            raise ValueError("guest bug")

        result = run_once(guest)
        assert not result.ok
        assert result.error_type == "ValueError"
        assert "guest bug" in result.error

    def test_budget_violation_reported(self):
        host = lone_host(QuotaGrant(work_units=5))

        def greedy(ctx):
            ctx.charge(10)

        result = host.run_guest(greedy, "guest")
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        metrics = host.world.metrics
        violations = metrics.counter(
            "security.sandbox_violations", labels={"node": "host"}
        )
        assert violations.value == 1
        # Labeled children roll up into the flat family total.
        assert metrics.counter("security.sandbox_violations").value == 1

    def test_execution_counter(self):
        host = lone_host()
        for _ in range(3):
            host.run_guest(lambda ctx: None, "guest")
        runs = host.world.metrics.counter(
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
                "hostile:*": QuotaGrant(work_units=1.0),
                "*": QuotaGrant(work_units=2.0),
            }
        )
        assert policy.grant_for("hostile:quota_loop").work_units == 1.0
        assert policy.grant_for("task:x").work_units == 2.0


class TestProviders:
    """Metering outcomes of one guest run."""

    def test_strict_preempts_at_quota(self):
        result = run_once(
            lambda ctx: ctx.charge(150.0), grant=QuotaGrant(work_units=100.0)
        )
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        # Preemption clamps metered work to exactly the grant.
        assert result.work_used == 100.0

    def test_session_lifecycle(self):
        def guest(ctx):
            ctx.charge(300.0)
            ctx.charge(200.0)

        # Every charge of the run lands on its one context.
        result = run_once(guest)
        assert result.ok
        assert result.work_used == 500.0

    def test_service_call_quota_enforced(self):
        context = ExecutionContext(
            "h", "guest", QuotaGrant(service_calls=2),
            services={"ping": lambda: None},
        )

        def flood(ctx):
            while True:
                ctx.service("ping")

        result = context.run(flood)
        assert not result.ok
        assert result.error_type == "SandboxViolation"
        assert result.service_calls == 2

    def test_base_exception_never_escapes(self):
        class Hostile(BaseException):
            pass

        def bomb(ctx):
            raise Hostile("escape attempt")

        result = run_once(bomb)
        assert not result.ok
        assert "escape attempt" in result.error

    @pytest.mark.parametrize(
        "spent", [0.0, 60.0], ids=["fresh_session", "partly_spent"]
    )
    def test_nan_charge_is_contained(self, spent):
        context = ExecutionContext("h", "guest", QuotaGrant(work_units=100.0))

        def guest(ctx):
            ctx.charge(spent)
            ctx.charge(float("nan"))

        result = context.run(guest)
        assert not result.ok
        assert result.error_type == "ValueError"
        # The NaN never landed: earlier usage is intact and the budget
        # still binds.
        assert result.work_used == spent
        with pytest.raises(SandboxViolation):
            context.charge(1e12)
        assert context.work_used == 100.0


def _swallow(step):
    """A guest that catches the violation ``step`` raises and returns."""

    def guest(ctx):
        try:
            while True:
                step(ctx)
        except SandboxViolation:
            return "escaped"

    return guest


#: Per quota: (grant, a metered step, the usage it meters, the cap).
QUOTAS = {
    "work_units": (
        QuotaGrant(work_units=100.0),
        lambda ctx: ctx.charge(30.0),
        lambda result: result.work_used,
        100.0,
    ),
    "storage_bytes": (
        QuotaGrant(storage_bytes=1_000),
        lambda ctx: ctx.store(f"k{ctx.storage_bytes_used}", "x" * 200),
        lambda result: result.peak_storage_bytes,
        1_000,
    ),
    "service_calls": (
        QuotaGrant(service_calls=3),
        lambda ctx: ctx.service("ping"),
        lambda result: result.service_calls,
        3,
    ),
}


class TestPreemptionIsFinal:
    """A guest cannot undo its preemption by catching the violation."""

    @pytest.mark.parametrize("quota", sorted(QUOTAS))
    def test_swallowed_violation_still_fails(self, quota):
        grant, step, usage, cap = QUOTAS[quota]
        host = lone_host(grant)
        result = host.run_guest(
            _swallow(step), "guest", services={"ping": lambda: None}
        )
        assert not result.ok
        assert result.value is None
        assert result.error_type == "SandboxViolation"
        assert 0 < usage(result) <= cap
        metrics = host.world.metrics
        assert metrics.counter("security.sandbox_violations").value == 1
        assert metrics.counter("security.sandbox_errors").value == 0
        assert metrics.histogram("security.guest_work").count == 0

    def test_later_error_does_not_mask_the_violation(self):
        def guest(ctx):
            try:
                ctx.charge(150.0)
            except SandboxViolation:
                raise ValueError("cover-up")

        result = run_once(guest, grant=QuotaGrant(work_units=100.0))
        assert result.error_type == "SandboxViolation"
        assert result.work_used == 100.0
