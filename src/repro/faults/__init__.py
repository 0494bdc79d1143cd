"""Deterministic fault injection for the simulated middleware.

Declare *what breaks and when* as a :class:`FaultPlan`, arm it on a
world with :meth:`FaultPlan.inject`, and run: link flaps, crash/restart
churn, partitions, and message-level drop/duplicate/delay/corrupt
windows all fire at their scheduled sim-times, driven by dedicated RNG
streams so runs stay bit-reproducible.  :mod:`repro.faults.chaos` adds
the harness that runs a workload under a plan and reports what
completed.  See docs/ROBUSTNESS.md.
"""

from .chaos import (
    ChaosOutcome,
    HOSTILE_GRANT,
    build_fleet,
    chaos_job,
    chaos_task,
    hostile_plan,
    hostile_policy,
    resolve_plan_spec,
    run_chaos,
    run_hostile,
    standard_plan,
    standard_slos,
)
from .hostile import HOSTILE_GUESTS, hostile_job
from .injectors import FaultInjector
from .plan import (
    FAULT_KINDS,
    GUEST_FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    TOPOLOGY_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ChaosOutcome",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GUEST_FAULT_KINDS",
    "HOSTILE_GRANT",
    "HOSTILE_GUESTS",
    "MESSAGE_FAULT_KINDS",
    "TOPOLOGY_FAULT_KINDS",
    "build_fleet",
    "chaos_job",
    "chaos_task",
    "hostile_job",
    "hostile_plan",
    "hostile_policy",
    "resolve_plan_spec",
    "run_chaos",
    "run_hostile",
    "standard_plan",
    "standard_slos",
]
