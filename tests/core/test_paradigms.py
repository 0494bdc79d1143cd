"""Unit tests for the CS, REV, and COD paradigm components."""

import pytest

from repro.core import World, mutual_trust, standard_host
from repro.errors import (
    QuotaExceeded,
    RemoteExecutionError,
    SandboxViolation,
    ServiceNotFound,
    UnitNotFound,
)
from repro.lmu import CodeRepository, DataUnit, code_unit
from repro.net import GPRS, LAN, Position
from repro.security import QuotaGrant, SecurityPolicy, OP_SERVE_COD
from tests.core.conftest import run


def compute_unit(name="worker", size=20_000, work=100_000):
    def factory():
        def body(ctx, *args):
            ctx.charge(work)
            data = ctx.services.get("data", {})
            return {"args": list(args), "data_keys": sorted(data)}

        return body

    return code_unit(name, "1.0.0", factory, size)


class TestClientServer:
    def test_call_returns_result(self, adhoc_pair):
        a, b = adhoc_pair
        b.register_service("add", lambda args, host: (args["x"] + args["y"], 16))

        def go():
            value = yield from a.component("cs").call("b", "add", {"x": 2, "y": 3})
            return value

        assert run(a.world, go()) == 5

    def test_missing_service_raises(self, adhoc_pair):
        a, b = adhoc_pair

        def go():
            yield from a.component("cs").call("b", "nope")

        with pytest.raises(ServiceNotFound):
            run(a.world, go())

    def test_handler_exception_wrapped(self, adhoc_pair):
        a, b = adhoc_pair

        def broken(args, host):
            raise ValueError("bad input")

        b.register_service("broken", broken)

        def go():
            yield from a.component("cs").call("b", "broken")

        with pytest.raises(RemoteExecutionError) as excinfo:
            run(a.world, go())
        assert "ValueError" in excinfo.value.remote_error

    def test_service_work_units_take_time(self, adhoc_pair):
        a, b = adhoc_pair
        b.register_service(
            "heavy", lambda args, host: (None, 8), work_units=1_000_000
        )

        def go():
            start = a.world.now
            yield from a.component("cs").call("b", "heavy")
            return a.world.now - start

        elapsed = run(a.world, go())
        assert elapsed >= 1.0  # 1e6 units at speed 1.0

    def test_call_metrics(self, adhoc_pair):
        a, b = adhoc_pair
        b.register_service("s", lambda args, host: (None, 8))

        def go():
            yield from a.component("cs").call("b", "s")

        run(a.world, go())
        assert a.world.metrics.counter("paradigm.cs.calls").value == 1
        assert a.world.metrics.counter("paradigm.cs.served").value == 1


class TestRemoteEvaluation:
    def test_evaluate_runs_remotely(self, phone_and_server):
        phone, server = phone_and_server
        phone.codebase.install(compute_unit())

        def go():
            value = yield from phone.component("rev").evaluate(
                "server", ["worker"], args=(1, 2)
            )
            return value

        value = run(phone.world, go())
        assert value["args"] == [1, 2]
        runs = server.world.metrics.counter(
            "security.sandbox_runs", labels={"node": server.id}
        )
        assert runs.value == 1

    def test_data_units_visible_to_guest(self, phone_and_server):
        phone, server = phone_and_server
        phone.codebase.install(compute_unit())

        def go():
            value = yield from phone.component("rev").evaluate(
                "server",
                ["worker"],
                data_units=[DataUnit("input", [1, 2, 3], 200)],
            )
            return value

        assert run(phone.world, go())["data_keys"] == ["input"]

    def test_guest_failure_reported_with_remote_error(self, phone_and_server):
        phone, server = phone_and_server

        def factory():
            def body(ctx):
                raise RuntimeError("remote bug")

            return body

        phone.codebase.install(code_unit("bad", "1.0.0", factory, 1000))

        def go():
            yield from phone.component("rev").evaluate("server", ["bad"])

        with pytest.raises(RemoteExecutionError) as excinfo:
            run(phone.world, go())
        assert "remote bug" in excinfo.value.remote_error

    def test_missing_local_unit_raises(self, phone_and_server):
        phone, _ = phone_and_server

        def go():
            yield from phone.component("rev").evaluate("server", ["ghost"])

        with pytest.raises(UnitNotFound):
            run(phone.world, go())

    def test_work_budget_enforced_remotely(self, phone_and_server):
        phone, server = phone_and_server
        server.policy = SecurityPolicy(
            require_signatures=True,
            quota_grants={"*": QuotaGrant(work_units=10.0)},
        )

        def factory():
            def body(ctx):
                ctx.charge(1_000_000)

            return body

        phone.codebase.install(code_unit("greedy", "1.0.0", factory, 1000))

        def go():
            yield from phone.component("rev").evaluate("server", ["greedy"])

        # The typed wire registry rebuilds the genuine violation class
        # on the caller's side (it is a registered wire error), so the
        # budget trip is no longer flattened into RemoteExecutionError.
        with pytest.raises(SandboxViolation) as excinfo:
            run(phone.world, go())
        assert "preempted at work quota" in str(excinfo.value)


class TestCodeOnDemand:
    def _provision(self, server, units):
        repository = CodeRepository()
        for unit in units:
            repository.publish(unit)
        server.repository = repository

    def test_fetch_installs_closure(self, phone_and_server):
        phone, server = phone_and_server
        lib = code_unit("lib", "1.0.0", lambda: (lambda ctx: 0), 5_000)
        app = code_unit(
            "app", "1.0.0", lambda: (lambda ctx: 1), 10_000, requires=["lib"]
        )
        self._provision(server, [lib, app])

        def go():
            capsule = yield from phone.component("cod").fetch("server", ["app"])
            return [u.name for u in capsule.code_units]

        assert run(phone.world, go()) == ["lib", "app"]
        assert "app" in phone.codebase and "lib" in phone.codebase

    def test_differential_fetch_skips_installed(self, phone_and_server):
        phone, server = phone_and_server
        lib = code_unit("lib", "1.0.0", lambda: (lambda ctx: 0), 5_000)
        app = code_unit(
            "app", "1.0.0", lambda: (lambda ctx: 1), 10_000, requires=["lib"]
        )
        self._provision(server, [lib, app])
        phone.codebase.install(lib)

        def go():
            capsule = yield from phone.component("cod").fetch("server", ["app"])
            return [u.name for u in capsule.code_units]

        assert run(phone.world, go()) == ["app"]

    def test_missing_unit_raises(self, phone_and_server):
        phone, server = phone_and_server
        self._provision(server, [])

        def go():
            yield from phone.component("cod").fetch("server", ["ghost"])

        with pytest.raises(UnitNotFound):
            run(phone.world, go())

    def test_ensure_hit_and_miss(self, phone_and_server):
        phone, server = phone_and_server
        unit = code_unit("codec", "1.0.0", lambda: (lambda ctx: 0), 5_000)
        self._provision(server, [unit])

        def go():
            first = yield from phone.component("cod").ensure(["codec"], "server")
            second = yield from phone.component("cod").ensure(["codec"], "server")
            return first, second

        assert run(phone.world, go()) == ("miss", "hit")
        metrics = phone.world.metrics
        assert metrics.counter("cod.hits").value == 1
        assert metrics.counter("cod.misses").value == 1

    def test_release_uninstalls(self, phone_and_server):
        phone, server = phone_and_server
        unit = code_unit("codec", "1.0.0", lambda: (lambda ctx: 0), 5_000)
        self._provision(server, [unit])

        def go():
            yield from phone.component("cod").fetch("server", ["codec"])

        run(phone.world, go())
        removed = phone.component("cod").release(["codec", "ghost"])
        assert removed == ["codec"]
        assert "codec" not in phone.codebase

    def test_quota_eviction_on_fetch(self, world):
        phone = standard_host(
            world, "p", Position(0, 0), [GPRS], quota_bytes=250_000
        )
        server = standard_host(world, "s", Position(0, 0), [LAN], fixed=True)
        mutual_trust(phone, server)
        phone.node.interface("gprs").attach()
        units = [
            code_unit(f"u{i}", "1.0.0", lambda: (lambda ctx: 0), 100_000)
            for i in range(3)
        ]
        repository = CodeRepository()
        for unit in units:
            repository.publish(unit)
        server.repository = repository

        def go():
            for index in range(3):
                yield from phone.component("cod").fetch("s", [f"u{index}"])

        run(world, go())
        assert phone.codebase.used_bytes <= 250_000
        assert phone.codebase.evictions >= 1

    def test_provider_policy_can_refuse_serving(self, world):
        phone = standard_host(world, "p", Position(0, 0), [GPRS])
        server = standard_host(
            world,
            "s",
            Position(0, 0),
            [LAN],
            fixed=True,
            policy=SecurityPolicy(
                require_signatures=False,
                allowed_operations=frozenset({"install-code"}),
            ),
        )
        mutual_trust(phone, server)
        phone.node.interface("gprs").attach()
        repository = CodeRepository()
        repository.publish(
            code_unit("u", "1.0.0", lambda: (lambda ctx: 0), 1000)
        )
        server.repository = repository

        def go():
            yield from phone.component("cod").fetch("s", ["u"], timeout=5.0)

        from repro.errors import RequestTimeout

        with pytest.raises(RequestTimeout):
            run(world, go())
