"""Per-node traffic and monetary cost accounting.

The paper's m-commerce argument is about *money*: wireless transfers are
metered per megabyte (GPRS) or per connected minute (dial-up).  Every
node carries a :class:`CostMeter` that the transport and interfaces feed;
experiments read totals from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .technologies import LinkTechnology


@dataclass
class CostMeter:
    """Accumulated traffic and money per technology for one node."""

    bytes_sent: Dict[str, int] = field(default_factory=dict)
    bytes_received: Dict[str, int] = field(default_factory=dict)
    connected_seconds: Dict[str, float] = field(default_factory=dict)
    money: float = 0.0

    def account_transfer(
        self, technology: LinkTechnology, size_bytes: int, sent: bool
    ) -> float:
        """Record a transfer and return the monetary charge applied."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        book = self.bytes_sent if sent else self.bytes_received
        book[technology.name] = book.get(technology.name, 0) + size_bytes
        if not technology.cost_per_mb:
            # A free tariff charges 0.0, and ``money += 0.0`` is a no-op.
            return 0.0
        charge = technology.transfer_cost(size_bytes)
        self.money += charge
        return charge

    def account_connection_time(
        self, technology: LinkTechnology, seconds: float
    ) -> float:
        """Record attached airtime and return the monetary charge applied."""
        if seconds < 0:
            raise ValueError(f"negative connection time {seconds}")
        self.connected_seconds[technology.name] = (
            self.connected_seconds.get(technology.name, 0.0) + seconds
        )
        charge = seconds / 60.0 * technology.cost_per_minute
        self.money += charge
        return charge

    @property
    def total_bytes_sent(self) -> int:
        return sum(self.bytes_sent.values())

    @property
    def total_bytes_received(self) -> int:
        return sum(self.bytes_received.values())

    @property
    def total_bytes(self) -> int:
        return self.total_bytes_sent + self.total_bytes_received

    def wireless_bytes(self) -> int:
        """Bytes moved over non-LAN technologies (the device's radio)."""
        return sum(
            count
            for book in (self.bytes_sent, self.bytes_received)
            for name, count in book.items()
            if name != "lan"
        )

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's totals into this one (fleet aggregation)."""
        for name, count in other.bytes_sent.items():
            self.bytes_sent[name] = self.bytes_sent.get(name, 0) + count
        for name, count in other.bytes_received.items():
            self.bytes_received[name] = self.bytes_received.get(name, 0) + count
        for name, seconds in other.connected_seconds.items():
            self.connected_seconds[name] = (
                self.connected_seconds.get(name, 0.0) + seconds
            )
        self.money += other.money
