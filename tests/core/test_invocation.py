"""The shared invocation pipeline: retry, marshalling, metrics, selection.

Covers the pipeline mechanics every paradigm now rides on —
:class:`RetryPolicy` backoff over transient link loss, error-reply
sizing, the :class:`LocalExecution` degenerate paradigm, and
``ParadigmSelector.select_and_invoke`` fallback behaviour.  The
cross-paradigm execution contract lives in
``test_paradigm_contract.py``.
"""

import pytest

from repro.core import (
    CostWeights,
    DEFAULT_RETRY,
    InvocationTask,
    LocalExecution,
    PARADIGM_LOCAL,
    PARADIGM_REV,
    ParadigmSelector,
    RetryPolicy,
    World,
    mutual_trust,
    standard_host,
)
from repro.errors import (
    ComponentError,
    RequestTimeout,
    ServiceNotFound,
    Unreachable,
)
from repro.core.invocation import request_with_retry
from repro.lmu import estimate_size
from repro.errors import to_wire
from repro.net import Message, Position, WIFI_ADHOC
from tests.core.conftest import run


def echo_task(name="echo", **overrides):
    def factory():
        def body(ctx, payload=None):
            ctx.charge(1_000)
            return {"got": payload}

        return body

    fields = dict(
        name=name, factory=factory, payload=7, work_units=1_000,
        code_bytes=4_000, timeout=30.0,
    )
    fields.update(overrides)
    return InvocationTask(**fields)


class TestRetryPolicy:
    def test_exponential_progression(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.5, multiplier=2.0)
        assert [policy.delay(i) for i in range(4)] == [0.5, 1.0, 2.0, 4.0]

    def test_cap(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=10.0, max_delay_s=30.0)
        assert policy.delay(5) == 30.0

    def test_no_retry_means_one_attempt(self, world):
        device = standard_host(world, "device", Position(0, 0), [WIFI_ADHOC])
        standard_host(world, "server", Position(5_000, 0), [WIFI_ADHOC])
        built = []

        def build():
            built.append(1)
            return Message(source="device", destination="server", kind="ping")

        def scenario():
            yield from request_with_retry(device, build, timeout=5.0, retry=None)

        with pytest.raises(Unreachable):
            run(world, scenario())
        assert built == [1]


class TestTransientRetry:
    @pytest.fixture
    def roaming_pair(self, world):
        """Server starts out of Wi-Fi range; the device can call it only
        after it moves back into range."""
        device = standard_host(world, "device", Position(0, 0), [WIFI_ADHOC])
        server = standard_host(
            world, "server", Position(5_000, 0), [WIFI_ADHOC]
        )
        mutual_trust(device, server)
        server.register_service("ping", lambda args, host: ({"pong": args}, 32))
        return device, server

    def test_link_drop_retried_with_backoff(self, world, roaming_pair):
        device, server = roaming_pair

        def come_back():
            yield world.env.timeout(1.0)
            server.node.move_to(Position(10, 0))

        world.env.process(come_back())

        def scenario():
            cs = device.component("cs")
            result = yield from cs.call(
                "server",
                "ping",
                {"n": 1},
                retry=RetryPolicy(attempts=3, base_delay_s=2.0),
            )
            return result

        result = run(world, scenario())
        assert result == {"pong": {"n": 1}}
        # First attempt fails at t=0, backoff 2s, second attempt succeeds.
        metrics = world.metrics
        assert metrics.counter("paradigm.cs.retries").value == 1
        assert metrics.counter("paradigm.cs.errors").value == 0
        assert metrics.counter("paradigm.cs.calls").value == 1
        assert world.env.now >= 2.0

    def test_exhaustion_raises_the_link_error(self, world, roaming_pair):
        device, _server = roaming_pair

        def scenario():
            yield from device.component("cs").call(
                "server",
                "ping",
                retry=RetryPolicy(attempts=2, base_delay_s=0.5),
            )

        with pytest.raises(Unreachable):
            run(world, scenario())
        assert world.metrics.counter("paradigm.cs.retries").value == 1
        assert world.metrics.counter("paradigm.cs.errors").value == 1

    def test_bare_call_still_fails_fast(self, world, roaming_pair):
        device, _server = roaming_pair

        def scenario():
            yield from device.component("cs").call("server", "ping")

        with pytest.raises(Unreachable):
            run(world, scenario())
        assert world.metrics.counter("paradigm.cs.retries").value == 0

    def test_request_timeout_is_not_transient(self, world, adhoc_pair):
        a, b = adhoc_pair
        # A service so slow the reply cannot beat the deadline: a
        # RequestTimeout, which may mean "already served" — retrying it
        # is the outbox's at-least-once job, not the pipeline's.
        b.register_service(
            "slow", lambda args, host: ({}, 16), work_units=50_000_000
        )

        def scenario():
            yield from a.component("cs").call(
                "b", "slow", timeout=1.0, retry=DEFAULT_RETRY
            )

        with pytest.raises(RequestTimeout):
            run(world, scenario())
        assert world.metrics.counter("paradigm.cs.retries").value == 0
        assert world.metrics.counter("paradigm.cs.errors").value == 1


class TestErrorReplies:
    def test_error_reply_sized_from_payload(self, world, adhoc_pair):
        a, b = adhoc_pair
        captured = {}
        original = b.reply_to

        def spy(request, kind, payload=None, size_bytes=0):
            captured.update(kind=kind, payload=payload, size_bytes=size_bytes)
            return original(request, kind, payload=payload, size_bytes=size_bytes)

        b.reply_to = spy

        def scenario():
            yield from a.component("cs").call("b", "nope")

        with pytest.raises(ServiceNotFound):
            run(world, scenario())
        expected = ServiceNotFound("no service 'nope' on b")
        assert captured["size_bytes"] == estimate_size(to_wire(expected))
        assert captured["size_bytes"] != 64  # the old hardcoded guess


class TestLocalExecution:
    def test_invoke_runs_in_the_local_sandbox(self, world):
        solo = standard_host(world, "solo", Position(0, 0), [WIFI_ADHOC])
        solo.add_component(LocalExecution())
        local = solo.paradigm_component(PARADIGM_LOCAL)

        result = run(world, local.invoke(echo_task()))
        assert result == {"got": 7}
        metrics = world.metrics
        assert metrics.counter("paradigm.local.calls").value == 1
        assert metrics.counter("paradigm.local.served").value == 1
        assert metrics.counter("paradigm.local.errors").value == 0
        assert metrics.histogram("paradigm.local.seconds").count == 1


class TestSelectAndInvoke:
    def test_no_link_falls_back_to_local(self, world):
        device = standard_host(
            world, "device", Position(0, 0), [WIFI_ADHOC], cpu_speed=0.1
        )
        server = standard_host(
            world, "server", Position(5_000, 0), [WIFI_ADHOC], cpu_speed=4.0
        )
        mutual_trust(device, server)
        device.add_component(LocalExecution())
        selector = ParadigmSelector(available=[PARADIGM_LOCAL, PARADIGM_REV])

        # Heavy enough that REV would win easily — but there is no link.
        task = echo_task(work_units=50_000_000)
        outcome = run(
            world,
            selector.select_and_invoke(device, task, "server"),
        )
        assert outcome.paradigm == PARADIGM_LOCAL
        assert outcome.result == {"got": 7}
        assert [e.paradigm for e in outcome.ranking] == [PARADIGM_LOCAL]

    def test_no_usable_paradigm_is_a_component_error(self, world):
        device = standard_host(
            world, "device", Position(0, 0), [WIFI_ADHOC]
        )
        # Only link-requiring paradigms available, and no link.
        selector = ParadigmSelector(available=[PARADIGM_REV])

        with pytest.raises(ComponentError):
            run(
                world,
                selector.select_and_invoke(device, echo_task(), "ghost"),
            )

    def test_outcome_carries_the_assessment(self, world, adhoc_pair):
        a, b = adhoc_pair
        a.add_component(LocalExecution())
        selector = ParadigmSelector(available=[PARADIGM_LOCAL, PARADIGM_REV])
        outcome = run(
            world, selector.select_and_invoke(a, echo_task(), "b")
        )
        assert outcome.estimate is outcome.ranking[0]
        assert outcome.estimate.paradigm == outcome.paradigm
        assert {e.paradigm for e in outcome.ranking} == {
            PARADIGM_LOCAL,
            PARADIGM_REV,
        }
        assert outcome.elapsed_s >= 0.0
