"""Unit tests for MobileHost: dispatch, components, request/reply, security gate."""

import pytest

from repro.core import Component, MobileHost, World, mutual_trust, standard_host
from repro.errors import (
    ComponentError,
    MiddlewareError,
    RequestTimeout,
    SignatureInvalid,
    Unreachable,
)
from repro.lmu import CodeRepository, build_capsule, code_unit
from repro.net import Message, Position, WIFI_ADHOC
from repro.security import OP_INSTALL_CODE, OPEN_POLICY, sign_capsule
from tests.core.conftest import run


class Echo(Component):
    kind = "echo"

    def __init__(self):
        super().__init__()
        self.seen = []

    def handlers(self):
        return {"echo.ping": self._handle}

    def _handle(self, message):
        self.seen.append(message.payload)
        yield self.require_host().reply_to(message, "echo.pong", payload=message.payload)


def make_host(world, node_id, x=0.0):
    node = world.add_node(node_id, Position(x, 0), [WIFI_ADHOC])
    return MobileHost(world, node, policy=OPEN_POLICY)


class TestComponents:
    def test_add_and_lookup(self, world):
        host = make_host(world, "a")
        component = host.add_component(Echo())
        assert host.component("echo") is component
        assert component.started

    def test_duplicate_component_rejected(self, world):
        host = make_host(world, "a")
        host.add_component(Echo())
        with pytest.raises(ComponentError):
            host.add_component(Echo())

    def test_duplicate_handler_kind_rejected(self, world):
        host = make_host(world, "a")
        host.add_component(Echo())

        class Rival(Echo):
            kind = "rival"

        with pytest.raises(ComponentError):
            host.add_component(Rival())

    def test_remove_component_unwires(self, world):
        host = make_host(world, "a")
        host.add_component(Echo())
        removed = host.remove_component("echo")
        assert not removed.started
        assert removed.host is None
        with pytest.raises(ComponentError):
            host.component("echo")

    def test_remove_missing_component(self, world):
        with pytest.raises(ComponentError):
            make_host(world, "a").remove_component("ghost")

    def test_unattached_component_guards(self):
        component = Echo()
        with pytest.raises(ComponentError):
            component.require_host()
        with pytest.raises(ComponentError):
            component.start()


class TestDispatch:
    def test_routes_to_handler(self, world):
        a = make_host(world, "a")
        b = make_host(world, "b", x=20)
        echo = b.add_component(Echo())

        def send():
            yield a.send(Message("a", "b", "echo.ping", payload="hi"))
            yield world.env.timeout(1.0)

        run(world, send())
        assert echo.seen == ["hi"]

    def test_unhandled_message_counted(self, world):
        a = make_host(world, "a")
        b = make_host(world, "b", x=20)

        def send():
            yield a.send(Message("a", "b", "no.such.kind"))
            yield world.env.timeout(1.0)

        run(world, send())
        assert b.unhandled_messages == 1

    def test_request_reply_roundtrip(self, world):
        a = make_host(world, "a")
        b = make_host(world, "b", x=20)
        b.add_component(Echo())

        def exchange():
            reply = yield from a.request(
                Message("a", "b", "echo.ping", payload={"n": 1})
            )
            return reply.kind, reply.payload

        kind, payload = run(world, exchange())
        assert kind == "echo.pong"
        assert payload == {"n": 1}

    def test_request_timeout_when_no_reply(self, world):
        a = make_host(world, "a")
        make_host(world, "b", x=20)  # no echo component: message unhandled

        def exchange():
            yield from a.request(
                Message("a", "b", "echo.ping"), timeout=2.0
            )

        with pytest.raises(RequestTimeout):
            run(world, exchange())

    def test_request_unreachable_propagates(self, world):
        a = make_host(world, "a")
        make_host(world, "b", x=5000)

        def exchange():
            yield from a.request(Message("a", "b", "echo.ping"))

        with pytest.raises(Unreachable):
            run(world, exchange())

    def test_handler_error_contained(self, world):
        a = make_host(world, "a")
        b = make_host(world, "b", x=20)

        class Bomb(Component):
            kind = "bomb"

            def handlers(self):
                return {"bomb.go": self._handle}

            def _handle(self, message):
                raise MiddlewareError("boom")
                yield

        b.add_component(Bomb())

        def send():
            yield a.send(Message("a", "b", "bomb.go"))
            yield world.env.timeout(1.0)
            return "survived"

        assert run(world, send()) == "survived"

    def test_server_crash_mid_handler_contained(self, world, phone_and_server):
        # The server crashes halfway through a 2 s handler; its reply
        # send fails because the sender is down.  That failure stays
        # inside the handler and the caller times out.
        phone, server = phone_and_server
        server.register_service(
            "slow", lambda args, host: ("done", 16), work_units=4_000_000
        )

        def crasher():
            yield world.env.timeout(1.0)
            server.node.crash()

        def client():
            try:
                yield from phone.component("cs").call(
                    "server", "slow", timeout=10.0
                )
            except RequestTimeout:
                return "timed out"
            return "replied"

        world.env.process(crasher())
        assert run(world, client()) == "timed out"


class TestServices:
    def test_register_and_duplicate(self, world):
        host = make_host(world, "a")
        host.register_service("svc", lambda args, host: (None, 0))
        with pytest.raises(MiddlewareError):
            host.register_service("svc", lambda args, host: (None, 0))
        host.unregister_service("svc")
        host.register_service("svc", lambda args, host: (None, 0))


class TestExecute:
    def test_execute_scales_with_cpu_speed(self, world):
        slow_node = world.add_node("slow", Position(0, 0), [WIFI_ADHOC], cpu_speed=0.5)
        slow = MobileHost(world, slow_node, policy=OPEN_POLICY)

        def compute():
            seconds = yield from slow.execute(1_000_000)
            return seconds

        assert run(world, compute()) == pytest.approx(2.0)

    def test_negative_work_rejected(self, world):
        host = make_host(world, "a")
        with pytest.raises(ValueError):
            list(host.execute(-1))

    def test_nan_work_rejected(self, world):
        host = make_host(world, "a")
        with pytest.raises(ValueError):
            list(host.execute(float("nan")))
        assert world.now == 0.0


class TestCapsuleGate:
    def _capsule(self, sender="vendor"):
        repository = CodeRepository()
        repository.publish(code_unit("u", "1.0.0", lambda: (lambda ctx: 1), 100))
        return build_capsule(sender, "cod-reply", ["u"], repository.resolve)

    def test_open_policy_admits_unsigned(self, world):
        host = make_host(world, "a")

        def admit():
            principal = yield from host.admit_capsule(
                self._capsule(), OP_INSTALL_CODE
            )
            return principal

        assert run(world, admit()) == "vendor"

    def test_signed_policy_rejects_unsigned(self, world):
        node = world.add_node("s", Position(0, 0), [WIFI_ADHOC])
        host = MobileHost(world, node)  # SIGNED_POLICY default

        def admit():
            yield from host.admit_capsule(self._capsule(), OP_INSTALL_CODE)

        with pytest.raises(SignatureInvalid):
            run(world, admit())

    def test_signed_policy_admits_trusted_signature(self, world):
        node = world.add_node("s", Position(0, 0), [WIFI_ADHOC])
        host = MobileHost(world, node)
        capsule = self._capsule()
        signer = MobileHost(
            world, world.add_node("signer", Position(0, 0), [WIFI_ADHOC])
        )
        sign_capsule(signer.keypair, capsule)
        host.truststore.trust(signer.keypair.public_key)

        def admit():
            principal = yield from host.admit_capsule(capsule, OP_INSTALL_CODE)
            return principal

        assert run(world, admit()) == "signer"


class TestRequestWorkCount:
    """Exact kernel work for sequential request/reply exchanges.

    One 100 B exchange between two loss-free Wi-Fi hosts costs 9
    events: the request leg's arrival and acknowledgement (the leg
    starts, books the radio, bills the sender and schedules its
    arrival in the caller's event); the server's inbox get and
    handler start; the reply leg's two (it starts in the handler); the
    handler's end; the client's inbox get; and the reply event, which
    resumes the caller.  The deadline is
    cancelled once the reply wins, so the kernel never pops it, and no
    ``any_of`` condition sits between the reply event and the caller.
    """

    def _run(self, world, monkeypatch):
        from repro.sim import events

        conditions = []
        condition_init = events.Condition.__init__

        def counting_condition_init(self, *args, **kwargs):
            conditions.append(self)
            condition_init(self, *args, **kwargs)

        monkeypatch.setattr(events.Condition, "__init__", counting_condition_init)
        a = make_host(world, "a")
        b = make_host(world, "b", x=20)
        b.add_component(Echo())

        def client():
            for index in range(100):
                yield from a.request(
                    Message("a", "b", "echo.ping", payload=index, size_bytes=100)
                )

        env = world.env
        steps = 0
        step = env.step

        def counting_step():
            nonlocal steps
            step()
            steps += 1

        env.step = counting_step
        env.process(client())
        world.run()  # until the queue is empty
        return steps, conditions

    def test_exchange_costs_nine_events(self, world, monkeypatch):
        steps, _ = self._run(world, monkeypatch)
        # 100 exchanges, and the client process's start and end.
        assert steps == 100 * 9 + 2

    def test_request_path_builds_no_condition(self, world, monkeypatch):
        _, conditions = self._run(world, monkeypatch)
        assert conditions == []
