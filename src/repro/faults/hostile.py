"""Hostile guest bodies: adversarial code units for chaos plans.

Each entry in :data:`HOSTILE_GUESTS` is a factory returning a guest
callable with the standard sandbox signature ``body(context) -> value``
(see :class:`repro.security.ExecutionContext`).  They are the attack
half of the hostile-guest fault family — the
:class:`~repro.faults.injectors.FaultInjector` launches them into a
target host's provider substrate (``host.run_guest``), where the
principal's :class:`~repro.security.QuotaGrant` must terminate every
one of them with :class:`~repro.errors.SandboxViolation` before it can
starve the host.

The bodies are written so their behaviour is a pure function of the
grant: a quota loop always trips after a bounded number of charges
under both provider flavors, keeping hostile runs bit-deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict

#: Scratch chunk a storage bomb writes per iteration.
_BOMB_CHUNK_BYTES = 1024
#: Metered work per storage-bomb / service-flood iteration, so hostile
#: CPU usage grows alongside the primary resource being attacked.
_ITERATION_WORK_UNITS = 64.0


def quota_loop_guest() -> Callable:
    """A CPU hog: burns its entire work grant as fast as possible.

    Charges half the remaining budget each step (always at least one
    unit), so it exhausts any finite grant in O(log budget) charges and
    the final overdraft charge trips :class:`SandboxViolation` under
    both the post-hoc and the strict provider.
    """

    def body(context):
        while True:
            context.charge(max(1.0, context.work_remaining / 2.0))

    return body


def storage_bomb_guest() -> Callable:
    """A scratch-storage bomb: hoards host memory until stopped.

    Writes 1 KiB chunks under fresh keys forever; the storage budget
    check raises once the running byte total would cross the grant.
    The small per-iteration work charge terminates the loop even under
    a grant with effectively unlimited storage.
    """

    def body(context):
        index = 0
        while True:
            context.store(f"bomb-{index}", "x" * _BOMB_CHUNK_BYTES)
            context.charge(_ITERATION_WORK_UNITS)
            index += 1

    return body


def service_flood_guest() -> Callable:
    """A confused deputy: hammers a host service it was granted.

    Looks up (and thereby spends a metered call on) the ``deputy``
    service every iteration.  A grant with a ``service_calls`` cap
    terminates the flood at the cap; otherwise the per-iteration work
    charge bounds it.
    """

    def body(context):
        while True:
            deputy = context.service("deputy")
            deputy()
            context.charge(_ITERATION_WORK_UNITS)

    return body


#: Registered hostile guest bodies, by fault-plan name.
HOSTILE_GUESTS: Dict[str, Callable[[], Callable]] = {
    "quota_loop": quota_loop_guest,
    "storage_bomb": storage_bomb_guest,
    "service_flood": service_flood_guest,
}


def hostile_job(
    seed: int,
    plan: object = None,
    slos: bool = False,
    spans: bool = True,
    **params: object,
) -> Dict[str, object]:
    """The hostile-guest scenario as an importable run-matrix job target.

    Mirrors :func:`repro.faults.chaos.chaos_job`: ``plan`` follows
    :func:`~repro.faults.chaos.resolve_plan_spec` (``None`` means the
    standard :func:`~repro.faults.chaos.hostile_plan`), remaining
    ``params`` go to :func:`~repro.faults.chaos.run_hostile`.  Returns
    the full report dict, a pure function of the arguments.
    """
    from .chaos import resolve_plan_spec, run_hostile, standard_slos

    outcome = run_hostile(
        seed=seed,
        hostile=resolve_plan_spec(plan),
        trace_enabled=spans,
        slos=standard_slos() if slos else None,
        **params,  # type: ignore[arg-type]
    )
    return outcome.report
