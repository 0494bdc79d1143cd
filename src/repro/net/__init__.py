"""Network substrate: technologies, nodes, connectivity, transport.

The substrate models the networking landscape the paper targets:
nomadic dial-up, always-on cellular (GPRS), ad-hoc piconets (Bluetooth,
802.11b IBSS), hotspot Wi-Fi, and the wired backbone — with bandwidth,
latency, loss, radio range, *and tariffs*, because the paper's
m-commerce arguments are about money as much as time.
"""

from .cost import CostMeter
from .geometry import Area, Position, SpatialGrid
from .message import HEADER_BYTES, Message
from .mobility import PathMobility, RandomWaypoint, grid_positions
from .monitor import ConnectivityMonitor
from .network import Link, Network, PhysicalNetwork, prefer_free_then_fast
from .node import Interface, NetworkNode
from .routing import HierarchicalRouter, Router, RoutingTable
from .technologies import (
    BACKBONE_LATENCY_S,
    BLUETOOTH,
    DIALUP,
    GPRS,
    LAN,
    WIFI_ADHOC,
    WIFI_INFRA,
    LinkTechnology,
)
from .transport import ACK_BYTES, Transport

__all__ = [
    "ACK_BYTES",
    "Area",
    "BACKBONE_LATENCY_S",
    "BLUETOOTH",
    "ConnectivityMonitor",
    "CostMeter",
    "DIALUP",
    "GPRS",
    "HEADER_BYTES",
    "HierarchicalRouter",
    "Interface",
    "LAN",
    "Link",
    "LinkTechnology",
    "Message",
    "Network",
    "NetworkNode",
    "PathMobility",
    "PhysicalNetwork",
    "Position",
    "RandomWaypoint",
    "Router",
    "RoutingTable",
    "SpatialGrid",
    "Transport",
    "WIFI_ADHOC",
    "WIFI_INFRA",
    "grid_positions",
    "prefer_free_then_fast",
]
