"""Network nodes and their interfaces."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import NetworkError
from ..sim import Environment, Store
from .cost import CostMeter
from .geometry import Position
from .message import Message
from .technologies import LinkTechnology


class Interface:
    """One radio/NIC of a node for a particular technology.

    An interface can be *enabled* (powered) and, for infrastructure
    technologies, *attached* (connected to the backbone: dialled-up,
    GPRS context active, associated to an access point).  Attached time
    is billed against the node's cost meter at per-minute tariffs.
    """

    def __init__(self, env: Environment, node: "NetworkNode", technology: LinkTechnology) -> None:
        self.env = env
        self.node = node
        self.technology = technology
        self.enabled = True
        self._attached = technology.infrastructure and node.fixed
        self._attached_since: Optional[float] = env.now if self._attached else None
        #: Radio is half-duplex-ish: one outbound transfer at a time,
        #: in FIFO order; the radio is booked until this instant.
        self.busy_until = 0.0

    @property
    def attached(self) -> bool:
        return self._attached

    def reserve(self, transfer_time: float) -> Tuple[float, float]:
        """Book the radio for one transfer queued now, behind every
        transfer booked before it: returns the instants it goes on air
        and ends, and keeps the radio busy until the end."""
        # ``not >=`` also rejects NaN: a booking never moves the radio back.
        if not transfer_time >= 0:
            raise ValueError(f"transfer time must be >= 0, got {transfer_time!r}")
        start = self.env.now
        if start < self.busy_until:
            start = self.busy_until
        end = self.busy_until = start + transfer_time
        return start, end

    def attach(self) -> float:
        """Connect to the backbone; returns the setup delay to pay.

        The caller (a process) is expected to ``yield env.timeout()`` on
        the returned delay — the interface records attachment from *now*
        regardless, which slightly favours the device; tests pin this.
        """
        if not self.technology.infrastructure:
            raise NetworkError(
                f"{self.technology.name} is ad-hoc; there is nothing to attach to"
            )
        if not self.enabled:
            raise NetworkError(f"interface {self.technology.name} is disabled")
        if self._attached:
            return 0.0
        self._attached = True
        self._attached_since = self.env.now
        self.node._touch_topology()
        return self.technology.setup_s

    def detach(self) -> None:
        """Disconnect from the backbone, billing the attached airtime."""
        if not self._attached:
            return
        self._settle_airtime()
        self._attached = False
        self._attached_since = None
        self.node._touch_topology()

    def disable(self) -> None:
        """Power the interface off (detaching first if needed)."""
        self.detach()
        if self.enabled:
            self.enabled = False
            self.node._touch_topology()

    def enable(self) -> None:
        if not self.enabled:
            self.enabled = True
            self.node._touch_topology()

    def _settle_airtime(self) -> None:
        if self._attached_since is not None:
            elapsed = self.env.now - self._attached_since
            self.node.costs.account_connection_time(self.technology, elapsed)
            self._attached_since = self.env.now

    def settle(self) -> None:
        """Bill airtime accrued so far (used at measurement points)."""
        if self._attached:
            self._settle_airtime()

    @property
    def usable(self) -> bool:
        """True if this interface can currently carry traffic."""
        if not self.enabled or not self.node.up:
            return False
        if self.technology.infrastructure:
            return self._attached
        return True

    def __repr__(self) -> str:
        state = "up" if self.usable else "down"
        return f"<Interface {self.node.id}/{self.technology.name} {state}>"


class NetworkNode:
    """A device on the network: fixed server or mobile handset.

    Nodes expose an ``inbox`` store of delivered :class:`Message` objects;
    higher layers (the middleware host) dispatch from it.
    """

    def __init__(
        self,
        env: Environment,
        node_id: str,
        position: Position = Position(0.0, 0.0),
        technologies: Iterable[LinkTechnology] = (),
        fixed: bool = False,
        cpu_speed: float = 1.0,
    ) -> None:
        self.env = env
        self.id = node_id
        self.position = position
        self.fixed = fixed
        #: Relative CPU speed (1.0 = reference fixed host); used by the
        #: REV/offloading experiments.
        self.cpu_speed = cpu_speed
        self.up = True
        self.costs = CostMeter()
        self.inbox: Store[Message] = Store(env)
        self.interfaces: Dict[str, Interface] = {}
        #: Back-reference set by :meth:`Network.add_node`; lets state
        #: changes bump the owning network's topology epoch.
        self._network = None
        for tech in technologies:
            self.add_interface(tech)

    def _touch_topology(self) -> None:
        network = self._network
        if network is not None:
            network._topology_changed(self)

    def add_interface(self, technology: LinkTechnology) -> Interface:
        if technology.name in self.interfaces:
            raise NetworkError(
                f"node {self.id} already has a {technology.name} interface"
            )
        interface = Interface(self.env, self, technology)
        self.interfaces[technology.name] = interface
        if self._network is not None:
            self._network._interface_added(self, technology)
        return interface

    def interface(self, technology_name: str) -> Interface:
        try:
            return self.interfaces[technology_name]
        except KeyError:
            raise NetworkError(
                f"node {self.id} has no {technology_name} interface"
            ) from None

    def usable_interfaces(self) -> List[Interface]:
        return [iface for iface in self.interfaces.values() if iface.usable]

    def crash(self) -> None:
        """Take the node down; pending inbox content is lost."""
        if self.up:
            self.up = False
            self._touch_topology()
        while self.inbox.try_get() is not None:
            pass

    def restart(self) -> None:
        if not self.up:
            self.up = True
            self._touch_topology()

    def move_to(self, position: Position) -> None:
        if position == self.position:
            return
        self.position = position
        network = self._network
        if network is not None:
            network._node_moved(self)

    def settle_airtime(self) -> None:
        """Bill all interfaces' accrued airtime (measurement point)."""
        for interface in self.interfaces.values():
            interface.settle()

    def __repr__(self) -> str:
        kind = "fixed" if self.fixed else "mobile"
        return f"<Node {self.id} {kind} at {self.position}>"
