"""Declarative fault schedules: what breaks, when, for how long.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries,
each keyed to simulated time.  The plan is pure data — building one
touches no world — so the same plan can drive many seeds, be serialised
into a run report's params, or be checked into a benchmark.  Injection
(kernel processes, RNG streams, metric/span emission) lives in
:mod:`repro.faults.injectors`; assembling plan + workload + recovery
invariants lives in :mod:`repro.faults.chaos`.

Fault kinds (see docs/ROBUSTNESS.md for the model):

* ``link_flap``     — targets' interfaces go down for ``duration``;
* ``crash``         — targets crash; with ``duration > 0`` they
  restart that many seconds later (churn = repeated crashes);
* ``partition``     — cross-``groups`` links are severed for
  ``duration``, then heal;
* ``drop``          — window forcing extra message loss at ``rate``;
* ``duplicate``     — window delivering a second copy of messages at
  ``rate``, ``extra_latency_s`` later (the stale-reply reproducer);
* ``delay``         — window adding ``extra_latency_s`` to deliveries
  at ``rate`` (a latency spike; at partial rate it also reorders);
* ``corrupt``       — window marking delivered payloads corrupted at
  ``rate`` (receivers checksum-discard them);
* ``hostile_guest`` — a named hostile guest body (quota-exhaustion
  loop, scratch-storage bomb, service-flood confused deputy; see
  :data:`repro.faults.hostile.HOSTILE_GUESTS`) is launched into each
  target host's sandbox-provider substrate at ``at``.

Message-window faults (`drop`/`duplicate`/`delay`/`corrupt`) accept
``targets`` (destination node ids; empty = every node) and
``message_kinds`` (glob patterns over the message kind; empty = every
kind) to scope the blast radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Faults that act on scheduled windows of message traffic.
MESSAGE_FAULT_KINDS = ("drop", "duplicate", "delay", "corrupt")
#: Faults that act on topology (nodes, interfaces, reachability).
TOPOLOGY_FAULT_KINDS = ("link_flap", "crash", "partition")
#: Faults that launch hostile guest code into target hosts' sandboxes.
GUEST_FAULT_KINDS = ("hostile_guest",)
FAULT_KINDS = TOPOLOGY_FAULT_KINDS + MESSAGE_FAULT_KINDS + GUEST_FAULT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  Prefer the :class:`FaultPlan` builders."""

    kind: str
    at: float
    duration: float = 0.0
    #: Node ids the fault applies to (semantics vary per kind; empty
    #: means "every message" for message faults).
    targets: Tuple[str, ...] = ()
    #: For ``partition``: the connectivity islands.  Nodes not listed
    #: in any group keep full connectivity.
    groups: Tuple[Tuple[str, ...], ...] = ()
    #: For message faults: per-message probability of applying.
    rate: float = 1.0
    #: Extra delivery latency (``delay``/``duplicate``), seconds.
    extra_latency_s: float = 0.0
    #: For ``link_flap``: restrict to one technology name (None = all).
    technology: Optional[str] = None
    #: Glob patterns over message kinds; empty = match all.
    message_kinds: Tuple[str, ...] = ()
    #: Occurrences: the fault re-fires ``repeat`` times, ``period``
    #: seconds apart (period must cover the duration).
    repeat: int = 1
    period: float = 0.0
    #: For ``hostile_guest``: the guest body's registered name (see
    #: :data:`repro.faults.hostile.HOSTILE_GUESTS`).
    guest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if self.at < 0:
            raise ValueError(f"fault scheduled in the past (at={self.at})")
        if self.duration < 0:
            raise ValueError(f"negative duration {self.duration}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.extra_latency_s < 0:
            raise ValueError(f"negative latency {self.extra_latency_s}")
        if self.repeat < 1:
            raise ValueError(f"repeat {self.repeat} must be >= 1")
        if self.repeat > 1 and self.period < self.duration:
            raise ValueError(
                f"period {self.period} shorter than duration "
                f"{self.duration}: occurrences would overlap themselves"
            )
        if self.kind == "partition" and len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        if self.kind in ("link_flap", "crash") and not self.targets:
            raise ValueError(f"{self.kind} needs at least one target node")
        if self.kind == "hostile_guest":
            if not self.targets:
                raise ValueError(
                    "hostile_guest needs at least one target node"
                )
            from .hostile import HOSTILE_GUESTS

            if self.guest not in HOSTILE_GUESTS:
                raise ValueError(
                    f"unknown hostile guest {self.guest!r} "
                    f"(one of {sorted(HOSTILE_GUESTS)})"
                )

    def window(self, occurrence: int) -> Tuple[float, float]:
        """``(start, end)`` of the given occurrence (0-based)."""
        start = self.at + occurrence * self.period
        return start, start + self.duration

    def matches(self, destination_id: str, message_kind: str) -> bool:
        """True when a message fault applies to this delivery."""
        if self.targets and destination_id not in self.targets:
            return False
        if self.message_kinds and not any(
            fnmatchcase(message_kind, pattern) for pattern in self.message_kinds
        ):
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind, "at": self.at}
        defaults = _SPEC_DEFAULTS
        for name in defaults:
            value = getattr(self, name)
            if value != defaults[name]:
                data[name] = (
                    [list(group) for group in value]
                    if name == "groups"
                    else list(value) if isinstance(value, tuple) else value
                )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        kwargs = dict(data)
        if "targets" in kwargs:
            kwargs["targets"] = tuple(kwargs["targets"])  # type: ignore[arg-type]
        if "groups" in kwargs:
            kwargs["groups"] = tuple(
                tuple(group) for group in kwargs["groups"]  # type: ignore[union-attr]
            )
        if "message_kinds" in kwargs:
            kwargs["message_kinds"] = tuple(kwargs["message_kinds"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


_SPEC_DEFAULTS = {
    "duration": 0.0,
    "targets": (),
    "groups": (),
    "rate": 1.0,
    "extra_latency_s": 0.0,
    "technology": None,
    "message_kinds": (),
    "repeat": 1,
    "period": 0.0,
    "guest": None,
}


class FaultPlan:
    """An ordered, append-only schedule of faults."""

    def __init__(self, faults: Iterable[FaultSpec] = ()) -> None:
        self.faults: List[FaultSpec] = list(faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:
        kinds = ", ".join(spec.kind for spec in self.faults)
        return f"<FaultPlan {len(self.faults)} faults: {kinds}>"

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.faults.append(spec)
        return self

    # -- builders (all return self for chaining) ----------------------------

    def link_flap(
        self,
        targets: Sequence[str],
        at: float,
        down_s: float,
        technology: Optional[str] = None,
        repeat: int = 1,
        period: float = 0.0,
    ) -> "FaultPlan":
        """Take the targets' radios down for ``down_s`` seconds."""
        return self.add(
            FaultSpec(
                kind="link_flap",
                at=at,
                duration=down_s,
                targets=tuple(targets),
                technology=technology,
                repeat=repeat,
                period=period,
            )
        )

    def crash(
        self,
        targets: Sequence[str],
        at: float,
        down_s: float = 0.0,
        repeat: int = 1,
        period: float = 0.0,
    ) -> "FaultPlan":
        """Crash the targets; ``down_s > 0`` restarts them afterwards."""
        return self.add(
            FaultSpec(
                kind="crash",
                at=at,
                duration=down_s,
                targets=tuple(targets),
                repeat=repeat,
                period=period,
            )
        )

    def churn(
        self,
        nodes: Sequence[str],
        start: float,
        period: float,
        down_s: float,
        rounds: int = 1,
    ) -> "FaultPlan":
        """Round-robin crash/restart churn over ``nodes``.

        Every ``period`` seconds the next node (cycling through the
        list for ``rounds`` full cycles) crashes for ``down_s``.
        """
        if down_s <= 0:
            raise ValueError("churned nodes must restart (down_s > 0)")
        for index in range(rounds * len(nodes)):
            node = nodes[index % len(nodes)]
            self.crash([node], at=start + index * period, down_s=down_s)
        return self

    def partition(
        self,
        groups: Sequence[Sequence[str]],
        at: float,
        duration: float,
    ) -> "FaultPlan":
        """Sever links across the groups for ``duration``, then heal."""
        return self.add(
            FaultSpec(
                kind="partition",
                at=at,
                duration=duration,
                groups=tuple(tuple(group) for group in groups),
            )
        )

    def drop(
        self,
        at: float,
        duration: float,
        rate: float,
        targets: Sequence[str] = (),
        message_kinds: Sequence[str] = (),
    ) -> "FaultPlan":
        """Force extra transit loss at ``rate`` during the window."""
        return self.add(
            FaultSpec(
                kind="drop",
                at=at,
                duration=duration,
                rate=rate,
                targets=tuple(targets),
                message_kinds=tuple(message_kinds),
            )
        )

    def duplicate(
        self,
        at: float,
        duration: float,
        rate: float,
        delay_s: float = 0.0,
        targets: Sequence[str] = (),
        message_kinds: Sequence[str] = (),
    ) -> "FaultPlan":
        """Deliver a second copy (``delay_s`` later) at ``rate``."""
        return self.add(
            FaultSpec(
                kind="duplicate",
                at=at,
                duration=duration,
                rate=rate,
                extra_latency_s=delay_s,
                targets=tuple(targets),
                message_kinds=tuple(message_kinds),
            )
        )

    def delay(
        self,
        at: float,
        duration: float,
        extra_s: float,
        rate: float = 1.0,
        targets: Sequence[str] = (),
        message_kinds: Sequence[str] = (),
    ) -> "FaultPlan":
        """Latency spike: add ``extra_s`` to deliveries at ``rate``.

        At ``rate < 1`` delayed messages overtake one another —
        deterministic reordering.
        """
        return self.add(
            FaultSpec(
                kind="delay",
                at=at,
                duration=duration,
                rate=rate,
                extra_latency_s=extra_s,
                targets=tuple(targets),
                message_kinds=tuple(message_kinds),
            )
        )

    def corrupt(
        self,
        at: float,
        duration: float,
        rate: float,
        targets: Sequence[str] = (),
        message_kinds: Sequence[str] = (),
    ) -> "FaultPlan":
        """Damage delivered payloads at ``rate`` (checksum-discarded)."""
        return self.add(
            FaultSpec(
                kind="corrupt",
                at=at,
                duration=duration,
                rate=rate,
                targets=tuple(targets),
                message_kinds=tuple(message_kinds),
            )
        )

    def hostile_guest(
        self,
        targets: Sequence[str],
        at: float,
        guest: str,
        repeat: int = 1,
        period: float = 0.0,
    ) -> "FaultPlan":
        """Launch the named hostile guest into each target's sandbox."""
        return self.add(
            FaultSpec(
                kind="hostile_guest",
                at=at,
                targets=tuple(targets),
                guest=guest,
                repeat=repeat,
                period=period,
            )
        )

    # -- scaling and (de)serialisation --------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            FaultSpec.from_dict(item)  # type: ignore[arg-type]
            for item in data.get("faults", ())  # type: ignore[union-attr]
        )

    def inject(self, world) -> "FaultInjector":  # noqa: F821 - forward ref
        """Arm this plan on ``world`` (see :class:`FaultInjector`)."""
        from .injectors import FaultInjector

        return FaultInjector(world, self)
