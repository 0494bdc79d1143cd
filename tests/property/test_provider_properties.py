"""Property-based tests for the guest runner.

Four invariants guest containment depends on:

* **Deterministic metering** — replaying the same guest behaviour
  in a fresh context yields a bit-identical
  :class:`~repro.security.ExecuteResult`.
* **Clamp at the quota** — metered work equals min(running sum of the
  charges, budget) for any charge sequence.
* **No escape** — no exception class a guest raises (``BaseException``
  subclasses included) ever escapes ``ExecutionContext.run``.
* **Running storage total** — the incremental byte total the budget
  check reads equals the O(n) recomputation over the live entries
  after any store/discard sequence.
"""

from hypothesis import given, strategies as st

from repro.errors import SandboxViolation
from repro.security import ExecutionContext, QuotaGrant

# Charge sequences stay positive; zero-unit charges are legal.
CHARGES = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    max_size=20,
)


def _metered_replay(charges, budget):
    context = ExecutionContext("node", "guest", QuotaGrant(work_units=budget))

    def body(ctx):
        for amount in charges:
            ctx.charge(amount)
        return "done"

    return context.run(body)


class TestDeterministicMetering:
    @given(CHARGES, st.floats(min_value=1.0, max_value=1e7))
    def test_same_guest_same_metrics(self, charges, budget):
        assert _metered_replay(charges, budget) == _metered_replay(
            charges, budget
        )

    @given(CHARGES, st.floats(min_value=1.0, max_value=1e7))
    def test_strict_never_exceeds_quota(self, charges, budget):
        result = _metered_replay(charges, budget)
        running = 0.0
        for amount in charges:
            running += amount
        # Charges are non-negative, so the running sum only grows: the
        # guest finishes iff the whole sum fits, and is clamped to
        # exactly the budget otherwise.
        assert result.ok == (running <= budget)
        assert result.work_used == min(running, budget)


class TestNoEscape:
    @given(
        st.sampled_from(
            [
                ValueError,
                KeyError,
                RuntimeError,
                ZeroDivisionError,
                RecursionError,
                MemoryError,
                SystemExit,
                KeyboardInterrupt,
                GeneratorExit,
                StopIteration,
                SandboxViolation,
            ]
        ),
        st.text(max_size=20),
    )
    def test_any_raise_is_contained(self, exc_class, message):
        def bomb(ctx):
            raise exc_class(message)

        result = ExecutionContext("node", "guest").run(bomb)
        assert not result.ok
        assert result.error_type is not None

    def test_fresh_exception_class_is_contained(self):
        class Bespoke(BaseException):
            pass

        context = ExecutionContext("node", "guest")
        result = context.run(lambda ctx: _raise(Bespoke))
        assert not result.ok
        assert "Bespoke" in (result.error_type or "")


def _raise(exc_class):
    raise exc_class("hostile")


# Storage op sequences: (True, key, size) stores, (False, key, 0) discards.
_KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
STORAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just(True), _KEYS, st.integers(0, 2000)),
        st.tuples(st.just(False), _KEYS, st.just(0)),
    ),
    max_size=40,
)


class TestStorageRunningTotal:
    @given(STORAGE_OPS)
    def test_running_total_matches_recomputation(self, ops):
        context = ExecutionContext(
            "host", "guest", QuotaGrant(storage_bytes=5_000)
        )
        for is_store, key, size in ops:
            if is_store:
                try:
                    context.store(key, "x" * size)
                except SandboxViolation:
                    pass  # rejected stores must not perturb the total
            else:
                context.discard(key)
            assert (
                context.storage_bytes_used
                == context.storage_bytes_recomputed()
            )

    @given(STORAGE_OPS)
    def test_peak_is_monotone_high_water(self, ops):
        context = ExecutionContext(
            "host", "guest", QuotaGrant(storage_bytes=5_000)
        )
        peak = 0
        for is_store, key, size in ops:
            if is_store:
                try:
                    context.store(key, "x" * size)
                except SandboxViolation:
                    pass
            else:
                context.discard(key)
            peak = max(peak, context.storage_bytes_used)
            assert context.peak_storage_bytes == peak
