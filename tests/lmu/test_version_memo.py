"""``Version.parse`` memoises per text, within a fixed bound.

Equal texts share one parsed :class:`~repro.lmu.Version`; a malformed
text raises every time (nothing is cached for it); and version texts
arriving from peers in a COD request cannot grow the memo past its
bound.
"""

import pytest

from repro.core import World, mutual_trust, standard_host
from repro.core.cod import KIND_REPLY, KIND_REQUEST
from repro.errors import CodebaseError
from repro.lmu import CodeRepository, CodeUnit, Requirement, Version, code_unit
from repro.lmu import units
from repro.net import Message, Position, WIFI_ADHOC
from tests.core.conftest import loss_free, run


class TestVersionMemo:
    def test_equal_texts_share_one_version(self):
        first = Version.parse("4.5.6")
        assert first == Version(4, 5, 6)
        assert Version.parse("4.5.6") is first
        # Different texts of the same version parse to equal values.
        assert Version.parse("4.5") == Version.parse("4.5.0")

    def test_malformed_text_raises_every_call(self):
        for _ in range(2):
            with pytest.raises(CodebaseError, match="malformed version"):
                Version.parse("4.x")

    def test_requirement_and_code_unit_unchanged(self):
        requirement = Requirement.parse("x>=1.2.3")
        assert requirement == Requirement("x", Version(1, 2, 3))
        factory = lambda: (lambda ctx: None)  # noqa: E731
        made = code_unit("x", "1.2.3", factory, 10, requires=["y>=0.4"])
        assert made == CodeUnit(
            name="x",
            version=Version(1, 2, 3),
            factory=factory,
            size_bytes=10,
            requires=(Requirement("y", Version(0, 4, 0)),),
        )

    def test_peer_inventory_stays_within_the_bound(self):
        # Earlier tests may have parsed some of the inventory's texts;
        # each text must be a miss here.
        units._parse_version.cache_clear()
        world = loss_free(World(seed=3))
        client = standard_host(world, "client", Position(0, 0), [WIFI_ADHOC])
        server = standard_host(
            world, "server", Position(20, 0), [WIFI_ADHOC], fixed=True
        )
        mutual_trust(client, server)
        server.repository = CodeRepository()
        server.repository.publish(
            code_unit("app", "1.0.0", lambda: (lambda ctx: 1), 1_000)
        )
        inventory = {f"lib{i}": f"7.{i}.{i % 13}" for i in range(10_000)}
        before = units._parse_version.cache_info()

        def go():
            reply = yield from client.request(
                Message(
                    source="client",
                    destination="server",
                    kind=KIND_REQUEST,
                    payload={"roots": ["app"], "inventory": inventory},
                    size_bytes=1_000,
                ),
                timeout=600.0,
            )
            return reply

        reply = run(world, go())
        assert reply.kind == KIND_REPLY
        assert [u.name for u in reply.payload["capsule"].code_units] == ["app"]
        info = units._parse_version.cache_info()
        assert info.misses - before.misses >= 10_000
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize < 10_000
