"""Cross-paradigm contract parity: one task, four paradigms, one answer.

The point of the unified pipeline: the *same*
:class:`~repro.core.invocation.InvocationTask` pushed through
``ParadigmSelector.select_and_invoke`` under each of CS, REV, COD, and
MA must produce the identical result, surface the identical typed
exception on remote failure, and emit the uniform
``paradigm.<kind>.{calls,served,errors,retries}`` / ``.seconds``
metric set — differing only in traffic profile, which is exactly the
axis the selector trades on.
"""

import pytest

from repro.core import (
    InvocationTask,
    PARADIGMS,
    PARADIGM_COD,
    ParadigmSelector,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
from repro.core.invocation import PARADIGM_COUNTERS
from repro.errors import RemoteExecutionError
from repro.net import Position, WIFI_ADHOC
from tests.core.conftest import loss_free, run

#: The per-paradigm metrics that are not duplicates of a uniform
#: ``paradigm.<kind>.*`` figure.
NON_ALIAS_PARADIGM_METRICS = {
    "rev.bytes_shipped",
    "cod.hits",
    "cod.misses",
    "cod.fetches",
    "cod.bytes_fetched",
}


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
    return world, device, server


def square_task():
    def factory():
        def body(ctx, payload=None):
            ctx.charge(5_000)
            value = (payload or {}).get("n", 0)
            return {"n": value, "square": value * value}

        return body

    return InvocationTask(
        name="square",
        factory=factory,
        payload={"n": 9},
        work_units=5_000,
        code_bytes=4_000,
        request_bytes=64,
        reply_bytes=64,
        timeout=60.0,
    )


def failing_task():
    def factory():
        def body(ctx, payload=None):
            raise ValueError("bad input")

        return body

    return InvocationTask(
        name="doomed", factory=factory, work_units=1_000, timeout=60.0
    )


@pytest.mark.parametrize("kind", PARADIGMS)
class TestContract:
    def test_same_result_through_every_paradigm(self, kind):
        world, device, server = make_world()
        task = square_task()
        provision_task(server, task)
        selector = ParadigmSelector(available=[kind])

        outcome = run(
            world, selector.select_and_invoke(device, task, "server")
        )
        assert outcome.paradigm == kind
        assert outcome.result == {"n": 9, "square": 81}

    def test_same_exception_type_on_remote_failure(self, kind):
        world, device, server = make_world()
        task = failing_task()
        provision_task(server, task)
        selector = ParadigmSelector(available=[kind])

        with pytest.raises(RemoteExecutionError) as excinfo:
            run(world, selector.select_and_invoke(device, task, "server"))
        assert "bad input" in str(excinfo.value)
        assert world.metrics.counter(f"paradigm.{kind}.errors").value >= 1

    def test_uniform_metric_set(self, kind):
        world, device, server = make_world()
        task = square_task()
        provision_task(server, task)
        selector = ParadigmSelector(available=[kind])
        run(world, selector.select_and_invoke(device, task, "server"))

        metrics = world.metrics
        for counter in PARADIGM_COUNTERS:
            name = f"paradigm.{kind}.{counter}"
            value = metrics.counter(name).value
            if counter in ("calls", "served"):
                assert value >= 1, name
            else:  # clean run: no errors, no retries
                assert value == 0, name
        assert metrics.histogram(f"paradigm.{kind}.seconds").count >= 1

    def test_no_per_paradigm_aliases_of_uniform_metrics(self, kind):
        """Calls, serves and latency live only under ``paradigm.<kind>.*``;
        a ``cs.``/``rev.``/``cod.`` name must measure something else."""
        world, device, server = make_world()
        task = square_task()
        provision_task(server, task)
        selector = ParadigmSelector(available=[kind])
        run(world, selector.select_and_invoke(device, task, "server"))

        emitted = {
            name
            for name in world.metrics.names()
            if name.startswith(("cs.", "rev.", "cod."))
        }
        assert emitted <= NON_ALIAS_PARADIGM_METRICS

    def test_result_round_trips_a_second_call(self, kind):
        """Invoking twice works (COD hits its cache the second time)."""
        world, device, server = make_world()
        task = square_task()
        provision_task(server, task)
        selector = ParadigmSelector(available=[kind])

        first = run(
            world, selector.select_and_invoke(device, task, "server")
        )
        second = run(
            world, selector.select_and_invoke(device, task, "server")
        )
        assert first.result == second.result
        if kind == PARADIGM_COD:
            assert world.metrics.counter("cod.hits").value == 1
