"""Unit tests for host builders and device profiles."""

import pytest

from repro.core import (
    STANDARD_COMPONENTS,
    World,
    mutual_trust,
    pda_host,
    server_host,
    standard_host,
)
from repro.net import GPRS, Position, WIFI_ADHOC


class TestStandardHost:
    def test_installs_standard_components(self, world):
        host = standard_host(world, "h", Position(0, 0), [WIFI_ADHOC])
        for kind in STANDARD_COMPONENTS:
            assert kind in host.components

    def test_mutual_trust_wires_both_ways(self, world):
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(0, 0), [WIFI_ADHOC])
        mutual_trust(a, b)
        assert a.truststore.trusts("b") and b.truststore.trusts("a")
        assert not a.truststore.trusts("a")  # no self entry needed


class TestDeviceProfiles:
    def test_pda_profile(self, world):
        pda = pda_host(world, "pda")
        assert pda.node.cpu_speed == 0.2
        assert pda.codebase.quota_bytes == 2_000_000
        assert pda.battery is not None
        assert "802.11b-adhoc" in pda.node.interfaces
        assert "bluetooth" in pda.node.interfaces

    def test_server_profile(self, world):
        server = server_host(world, "srv")
        assert server.node.fixed
        assert server.battery is None
        assert "lan" in server.node.interfaces

    def test_overrides_win(self, world):
        pda = pda_host(world, "pda", cpu_speed=0.7, quota_bytes=123)
        assert pda.node.cpu_speed == 0.7
        assert pda.codebase.quota_bytes == 123

    def test_profiles_interoperate(self, world):
        phone = pda_host(world, "phone", technologies=[GPRS])
        server = server_host(world, "srv")
        mutual_trust(phone, server)
        phone.node.interface("gprs").attach()
        assert world.network.connected("phone", "srv")
