"""Link technology profiles.

Each profile captures the characteristics the paper's trade-offs hinge
on: raw bandwidth, latency, loss, radio range (for ad-hoc technologies),
whether the technology reaches the fixed backbone, and what it costs —
per megabyte (packet-switched tariffs such as GPRS) and per minute
(circuit-switched tariffs such as GSM dial-up).

The numeric values are period-correct for 2002-era hardware; they are
calibration constants, not magic — experiments sweep around them.
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1_000_000  # bytes per megabyte, decimal, as tariffs were quoted


@dataclass(frozen=True)
class LinkTechnology:
    """Static characteristics of one networking technology."""

    name: str
    bandwidth_bps: float  #: usable bit rate
    latency_s: float  #: one-way propagation + processing delay
    loss: float  #: probability an unacknowledged transfer is lost
    range_m: float  #: radio range; 0 for wired
    infrastructure: bool  #: True if it attaches to the fixed backbone
    cost_per_mb: float  #: monetary units per megabyte transferred
    cost_per_minute: float  #: monetary units per minute attached
    setup_s: float  #: connection establishment time (dial-up, pairing)
    max_payload: int = 64 * 1024 * 1024  #: refuse transfers above this

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds of transmission time for ``size_bytes`` (no latency)."""
        return size_bytes * 8.0 / self.bandwidth_bps

    def transfer_cost(self, size_bytes: int) -> float:
        """Monetary cost of moving ``size_bytes`` under the per-MB tariff."""
        return size_bytes / MB * self.cost_per_mb

    @property
    def is_adhoc(self) -> bool:
        """True when peers talk directly, without the backbone."""
        return not self.infrastructure

    def __str__(self) -> str:
        return self.name


#: IEEE 802.11b in ad-hoc (IBSS) mode: fast, free, ~100 m outdoors.
WIFI_ADHOC = LinkTechnology(
    name="802.11b-adhoc",
    bandwidth_bps=5_000_000,  # ~5 Mbps goodput of an 11 Mbps channel
    latency_s=0.005,
    loss=0.02,
    range_m=100.0,
    infrastructure=False,
    cost_per_mb=0.0,
    cost_per_minute=0.0,
    setup_s=0.1,
)

#: Bluetooth 1.1 piconet: slow, free, ~10 m.
BLUETOOTH = LinkTechnology(
    name="bluetooth",
    bandwidth_bps=721_000,
    latency_s=0.03,
    loss=0.03,
    range_m=10.0,
    infrastructure=False,
    cost_per_mb=0.0,
    cost_per_minute=0.0,
    setup_s=1.0,
)

#: GPRS: always-on cellular data, slow, paid per megabyte.
GPRS = LinkTechnology(
    name="gprs",
    bandwidth_bps=40_000,
    latency_s=0.6,
    loss=0.01,
    range_m=0.0,  # coverage assumed ubiquitous
    infrastructure=True,
    cost_per_mb=6.0,
    cost_per_minute=0.0,
    setup_s=0.5,
)

#: GSM circuit-switched dial-up: very slow, paid per minute, slow setup.
DIALUP = LinkTechnology(
    name="gsm-dialup",
    bandwidth_bps=9_600,
    latency_s=0.5,
    loss=0.01,
    range_m=0.0,
    infrastructure=True,
    cost_per_mb=0.0,
    cost_per_minute=0.3,
    setup_s=20.0,
)

#: 802.11b through an access point (hotspot): fast, free, reaches backbone.
WIFI_INFRA = LinkTechnology(
    name="802.11b-infra",
    bandwidth_bps=5_000_000,
    latency_s=0.005,
    loss=0.02,
    range_m=100.0,
    infrastructure=True,
    cost_per_mb=0.0,
    cost_per_minute=0.0,
    setup_s=0.5,
)

#: Wired fast Ethernet for fixed hosts.
LAN = LinkTechnology(
    name="lan",
    bandwidth_bps=100_000_000,
    latency_s=0.001,
    loss=0.0,
    range_m=0.0,
    infrastructure=True,
    cost_per_mb=0.0,
    cost_per_minute=0.0,
    setup_s=0.0,
)

#: One-way latency added when a path crosses the fixed backbone.
BACKBONE_LATENCY_S = 0.02
