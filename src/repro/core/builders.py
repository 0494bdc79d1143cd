"""Convenience builders: hosts with the standard component stack.

Most deployments want the full paradigm suite; these helpers cut the
boilerplate of wiring components, trust, and context monitoring.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..lmu import CodeRepository
from ..net import LinkTechnology, Position
from ..security import SecurityPolicy, SIGNED_POLICY
from .agents import AgentRuntime
from .cod import CodeOnDemand
from .context import Battery, ContextMonitor
from .cs import ClientServer
from .discovery import Discovery
from .host import MobileHost
from .rev import RemoteEvaluation
from .update import UpdateManager
from .world import World

#: Component kinds installed by :func:`standard_host`.
STANDARD_COMPONENTS = ("cs", "rev", "cod", "agents", "discovery", "update")


def standard_host(
    world: World,
    node_id: str,
    position: Position = Position(0.0, 0.0),
    technologies: Iterable[LinkTechnology] = (),
    fixed: bool = False,
    cpu_speed: float = 1.0,
    policy: SecurityPolicy = SIGNED_POLICY,
    quota_bytes: float = float("inf"),
    battery: Optional[Battery] = None,
    repository: Optional[CodeRepository] = None,
    beacon_interval: Optional[float] = None,
    monitor_context: bool = False,
) -> MobileHost:
    """A node plus a middleware host with the full paradigm suite."""
    node = world.add_node(
        node_id,
        position=position,
        technologies=technologies,
        fixed=fixed,
        cpu_speed=cpu_speed,
    )
    host = MobileHost(
        world,
        node,
        policy=policy,
        quota_bytes=quota_bytes,
        battery=battery,
        repository=repository,
    )
    host.add_component(ClientServer())
    host.add_component(RemoteEvaluation())
    host.add_component(CodeOnDemand())
    host.add_component(AgentRuntime())
    host.add_component(Discovery(beacon_interval=beacon_interval))
    host.add_component(UpdateManager())
    if monitor_context:
        ContextMonitor(host)
    return host


def mutual_trust(*hosts: MobileHost) -> None:
    """Make every given host trust every other's signing key."""
    for signer in hosts:
        for verifier in hosts:
            if signer is not verifier:
                verifier.truststore.trust(signer.keypair.public_key)


# ---------------------------------------------------------------------------
# Device profiles: period-plausible presets for the common device classes.
# ---------------------------------------------------------------------------


def pda_host(
    world: World,
    node_id: str,
    position: Position = Position(0.0, 0.0),
    **overrides,
) -> MobileHost:
    """A 2002 PDA: Wi-Fi + Bluetooth radios, slow CPU, tight storage,
    battery-powered."""
    from ..net import BLUETOOTH, WIFI_ADHOC, WIFI_INFRA
    from .context import Battery

    settings = dict(
        technologies=[WIFI_ADHOC, WIFI_INFRA, BLUETOOTH],
        cpu_speed=0.2,
        quota_bytes=2_000_000,
        battery=Battery(capacity_joules=36_000.0),
    )
    settings.update(overrides)
    return standard_host(world, node_id, position, **settings)


def server_host(
    world: World,
    node_id: str,
    position: Position = Position(0.0, 0.0),
    **overrides,
) -> MobileHost:
    """A fixed server: wired LAN, fast CPU, mains-powered."""
    from ..net import LAN

    settings = dict(
        technologies=[LAN],
        fixed=True,
        cpu_speed=2.0,
    )
    settings.update(overrides)
    return standard_host(world, node_id, position, **settings)
