"""Paradigm assessment and selection.

"Different mobile code paradigms could be plugged-in dynamically and
used when needed after assessment of the environment and application."
This module is that assessment, made programmatic: each paradigm
component prices itself (``estimate(profile, link)`` beside its
``invoke``) over a :class:`TaskProfile` and the current link/context,
and the selector ranks those :class:`CostEstimate` values by a weighted
composite.  :func:`resolve_profile` turns a task into that profile, and
:class:`InvocationOutcome` is what a selection hands back; both are
re-exported from :mod:`repro.core.invocation`.

The estimates follow the Fuggetta/Picco/Vigna traffic decomposition
(who initiates, what moves) — the same modelling the PrimaMob-UML
methodology the paper cites performs at design time.  The pricing
helpers they share (:func:`_transfer`, :func:`_quota_penalty`, the
energy and penalty constants) live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ComponentError
from ..net import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .components import Component
    from .invocation import InvocationTask

#: Sentinel distinguishing "no link argument" from an explicit None.
_UNSET = object()

PARADIGM_CS = "cs"
PARADIGM_REV = "rev"
PARADIGM_COD = "cod"
PARADIGM_MA = "ma"
#: The degenerate "no mobility" paradigm: run the task on the local
#: device.  Not part of :data:`PARADIGMS` (the four mobile-code
#: paradigms of the paper) but rankable alongside them.
PARADIGM_LOCAL = "local"
PARADIGMS = (PARADIGM_CS, PARADIGM_REV, PARADIGM_COD, PARADIGM_MA)

#: Paradigm kind -> the component class that executes and prices it.
#: ``Component.__init_subclass__`` fills it with every class that
#: declares ``paradigm`` in its own body, so defining a plug-in's class
#: is all it takes for :class:`ParadigmSelector` to rank its kind; a
#: second class declaring a held kind is refused.
PARADIGM_CLASSES: Dict[str, type[Component]] = {}


@dataclass(frozen=True)
class TaskProfile:
    """The application-side facts a paradigm choice depends on."""

    #: How many request/reply interactions the task needs.
    interactions: int
    #: Bytes of one request and one reply.
    request_bytes: int
    reply_bytes: int
    #: Bytes of the code that would move (REV capsule / COD unit / agent).
    code_bytes: int
    #: Bytes of the final result the device actually wants.
    result_bytes: int
    #: Work units of computation per interaction.
    work_units: float
    #: Relative CPU speed of the local device and of the remote server.
    local_speed: float = 0.2
    remote_speed: float = 1.0
    #: How many times this capability will be exercised after fetching
    #: (COD amortisation horizon).
    expected_reuses: int = 1
    #: For MA: number of hosts an agent must visit.
    hosts_to_visit: int = 1
    #: Bytes of agent state carried per hop.
    state_bytes: int = 512
    #: Work-unit quota the executing side's
    #: :class:`~repro.security.QuotaGrant` would enforce on this task's
    #: guest — ``None`` means unknown/unlimited.  A task whose work
    #: would exceed the quota pays the estimators' quota-pressure
    #: penalty (it will be preempted and retried/failed there), so the
    #: selector steers compute towards hosts that grant enough CPU.
    local_work_quota: Optional[float] = None
    remote_work_quota: Optional[float] = None


def resolve_profile(
    task: "InvocationTask",
    local_speed: Optional[float] = None,
    remote_speed: Optional[float] = None,
    hosts: Optional[int] = None,
    local_work_quota: Optional[float] = None,
    remote_work_quota: Optional[float] = None,
    observed_work: Optional[float] = None,
) -> TaskProfile:
    """The :class:`TaskProfile` the paradigm estimates price ``task`` by.

    The task's per-host ``interactions`` are multiplied out over
    ``hosts`` targets — the CS-centric convention the estimates use
    (the MA estimate additionally scales by ``hosts_to_visit``, making
    its compute term conservative for multi-target tasks; transfer
    terms dominate paradigm choice in every scenario the paper
    discusses).

    ``observed_work`` (the metered ``work_used`` of a prior run of the
    same guest) ratchets the task's declared ``work_units`` *upward* —
    the selector prices CPU the substrate actually measured when a guest
    under-declares, but a past small invocation never masks a
    declared-large one.  The two quotas come
    from the executing side's :class:`~repro.security.QuotaGrant` and
    feed the estimates' quota-pressure penalty.
    """
    count = int(hosts) if hosts else 1
    count = max(1, count)
    return TaskProfile(
        interactions=max(1, task.interactions) * count,
        request_bytes=task.request_bytes,
        reply_bytes=task.reply_bytes,
        code_bytes=task.code_bytes,
        result_bytes=task.result_bytes,
        work_units=max(task.work_units, observed_work or 0.0),
        local_speed=0.2 if local_speed is None else local_speed,
        remote_speed=1.0 if remote_speed is None else remote_speed,
        expected_reuses=task.expected_reuses,
        hosts_to_visit=count,
        state_bytes=task.state_bytes,
        local_work_quota=local_work_quota,
        remote_work_quota=remote_work_quota,
    )


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of running a task under one paradigm."""

    paradigm: str
    wireless_bytes: float
    time_s: float
    money: float
    energy_j: float

    def composite(self, weights: "CostWeights") -> float:
        return (
            weights.time * self.time_s
            + weights.money * self.money
            + weights.energy * self.energy_j
            + weights.traffic * self.wireless_bytes
        )


@dataclass(frozen=True)
class CostWeights:
    """How much each cost dimension matters right now.

    Derived from context: a draining battery raises ``energy``; a
    per-MB tariff raises ``money``; an interactive user raises ``time``.
    """

    time: float = 1.0
    money: float = 1.0
    energy: float = 0.0
    traffic: float = 0.0

    @classmethod
    def from_context(
        cls,
        battery_fraction: Optional[float] = None,
        interactive: bool = True,
    ) -> "CostWeights":
        energy = 0.0
        if battery_fraction is not None and battery_fraction < 0.3:
            energy = 0.01 * (0.3 - battery_fraction) / 0.3
        return cls(
            time=1.0 if interactive else 0.2,
            money=1.0,
            energy=energy,
            traffic=0.0,
        )


#: Energy per wireless byte (J) and per CPU-second (J), for estimates.
_RADIO_J_PER_BYTE = 1.0e-6
_CPU_J_PER_S = 1.0

#: Seconds of predicted penalty per work unit a task would overrun its
#: executing side's quota by: the modelled cost of being preempted,
#: re-negotiated, and re-run elsewhere.  Deliberately steep — a
#: paradigm whose substrate will kill the guest should essentially
#: never win the ranking.
QUOTA_PENALTY_S_PER_UNIT = 1.0e-4


def _quota_penalty(required: float, quota: Optional[float]) -> float:
    """Predicted preemption cost of ``required`` work under ``quota``."""
    if quota is None or required <= quota:
        return 0.0
    return (required - quota) * QUOTA_PENALTY_S_PER_UNIT


def _transfer(link: Link, size_bytes: float) -> Tuple[float, float]:
    """(seconds, money) to move ``size_bytes`` over ``link``, as charged
    to the mobile endpoint: per-MB tariffs on the bytes plus per-minute
    tariffs on the airtime the transfer occupies."""
    seconds = link.transfer_time(int(size_bytes)) + link.latency_s
    technology = link.sender_technology
    money = technology.transfer_cost(int(size_bytes))
    money += seconds / 60.0 * technology.cost_per_minute
    return seconds, money


def normalize_targets(
    target: Union[str, Sequence[str], None],
) -> List[str]:
    """The target ids of a paradigm ``invoke``: a string is one target,
    None is none.  Only a string target gets a single result back."""
    if isinstance(target, str):
        return [target]
    return list(target or [])


@dataclass
class InvocationOutcome:
    """What ``select_and_invoke`` hands back: the result plus the
    assessment that chose the paradigm."""

    paradigm: str
    target: Union[str, Sequence[str], None]
    result: object
    elapsed_s: float
    estimate: Optional[CostEstimate] = None
    ranking: List[CostEstimate] = field(default_factory=list)


class ParadigmSelector:
    """Ranks the plugged-in paradigms for a task under current context."""

    def __init__(self, available: Optional[Sequence[str]] = None) -> None:
        """``available=None`` ranks the four :data:`PARADIGMS`; an empty
        sequence, like an unknown kind, raises ``ValueError``."""
        self.available = list(PARADIGMS if available is None else available)
        if not self.available:
            raise ValueError("no paradigm available to rank")
        for paradigm in self.available:
            if paradigm not in PARADIGM_CLASSES:
                raise ValueError(f"unknown paradigm {paradigm!r}")

    def estimates(
        self, profile: TaskProfile, link: Link
    ) -> List[CostEstimate]:
        return [
            PARADIGM_CLASSES[paradigm].estimate(profile, link)
            for paradigm in self.available
        ]

    def rank(
        self,
        profile: TaskProfile,
        link: Link,
        weights: CostWeights = CostWeights(),
    ) -> List[CostEstimate]:
        """Estimates sorted cheapest-composite first."""
        return sorted(
            self.estimates(profile, link),
            key=lambda estimate: estimate.composite(weights),
        )

    def choose(
        self,
        profile: TaskProfile,
        link: Link,
        weights: CostWeights = CostWeights(),
    ) -> CostEstimate:
        """The winning paradigm's estimate for this task/context."""
        return self.rank(profile, link, weights)[0]

    def select_and_invoke(
        self,
        host,
        task,
        target=None,
        weights: CostWeights = CostWeights(),
        retry=None,
        link=_UNSET,
    ):
        """Assess, pick, and run: the point where the paper's
        "plugged-in dynamically and used when needed" becomes executable
        (generator).

        Ranks the paradigms in :attr:`available` that ``host`` actually
        has installed, each priced by its own
        :meth:`~repro.core.components.Component.estimate` over the
        current best link to the primary target, and invokes the
        cheapest.  With no usable link, link-requiring
        paradigms are excluded (a local/COD-cached fallback still
        runs).  Ties keep :attr:`available` order — list the preferred
        fallback first.  Returns an :class:`InvocationOutcome`.
        """
        targets = normalize_targets(target)
        network = host.world.network
        if link is _UNSET:
            link = None
            if targets and targets[0] in network.nodes:
                link = network.best_link(
                    host.node, network.node(targets[0])
                )
        remote_speed = None
        if targets and targets[0] in network.nodes:
            remote_speed = network.node(targets[0]).cpu_speed
        # Quota-aware pricing (global-knowledge idiom, like reading the
        # target's cpu_speed above): the grant each side's policy would
        # hand this task's guest caps its usable compute there, and work
        # the substrate already metered for this task ratchets the
        # declared estimate upward when the guest under-declared.
        task_name = getattr(task, "name", None)
        principal = f"task:{task_name}" if task_name else None
        local_work_quota = None
        remote_work_quota = None
        observed_work = None
        if principal is not None:
            local_work_quota = host.policy.grant_for(principal).work_units
            observed_work = host.observed_guest_work(task_name)
            peer = (
                host.world.hosts.get(targets[0]) if targets else None
            )
            if peer is not None:
                remote_work_quota = peer.policy.grant_for(
                    principal
                ).work_units
                if observed_work is None:
                    observed_work = peer.observed_guest_work(task_name)
        candidates = []
        for kind in self.available:
            component = host.paradigm_component(kind, required=False)
            if component is None:
                continue
            if link is None and component.requires_link:
                continue
            candidates.append(component)
        if not candidates:
            raise ComponentError(
                f"host {host.id} has no usable paradigm among "
                f"{self.available} (link: {'up' if link else 'down'})"
            )
        profile = resolve_profile(
            task,
            local_speed=host.node.cpu_speed,
            remote_speed=remote_speed,
            hosts=len(targets) or None,
            local_work_quota=local_work_quota,
            remote_work_quota=remote_work_quota,
            observed_work=observed_work,
        )
        ranking = sorted(
            (component.estimate(profile, link) for component in candidates),
            key=lambda estimate: estimate.composite(weights),
        )
        by_kind = {component.paradigm: component for component in candidates}
        winner = ranking[0]
        component = by_kind[winner.paradigm]
        started = host.env.now
        result = yield from component.invoke(task, target, retry=retry)
        return InvocationOutcome(
            paradigm=winner.paradigm,
            target=target,
            result=result,
            elapsed_s=host.env.now - started,
            estimate=winner,
            ranking=ranking,
        )
