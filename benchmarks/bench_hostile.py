"""Hostile-guest benchmark — containment under attack, gated.

Runs the :mod:`repro.faults.chaos` echo workload twice while the
standard hostile-guest plan (a quota-exhaustion loop, scratch-storage
bombs, and a service-flood confused deputy) attacks the servers, and
enforces four properties:

* **Containment**: every launched hostile guest is terminated by its
  strict :class:`~repro.security.QuotaGrant` with ``SandboxViolation``
  (``hostile.terminated == hostile.guests``) and nothing escapes the
  provider substrate (``hostile.escapes == 0``).
* **Service survival**: benign completion stays at or above the 95%
  floor while the attacks run — encoded with the other ceilings in
  ``benchmarks/baselines/hostile.json`` and checked by the shared
  ``gate_against_baseline`` diff (the same comparison CI re-runs as
  ``python -m repro compare --fail-on regress``).
* **Determinism**: two same-seed hostile runs produce bit-identical
  metrics and bit-identical trace analytics — a hostile guest's
  metered cost is a pure function of its grant.
* **Attribution**: the written report carries the attack cost in
  per-node labeled ``hostile.*`` / ``security.*`` families, with the
  strict provider's work clamped at exactly the grant.

``--quick`` shrinks the fleet and request count for CI smoke runs; the
floor document applies to both sizes.
"""

from __future__ import annotations

from repro.faults import HOSTILE_GRANT, run_hostile
from repro.obs import TraceAnalysis

from _common import gate_against_baseline, quick, write_report_document

SEED = 7


def _params():
    if quick():
        return dict(clients=2, servers=2, requests_per_client=4)
    return dict(clients=3, servers=2, requests_per_client=6)


def test_hostile_containment_gate():
    params = _params()
    first = run_hostile(seed=SEED, trace_enabled=True, **params)
    second = run_hostile(seed=SEED, trace_enabled=True, **params)

    # Determinism first: a nondeterministic hostile run is ungateable.
    assert first.summary == second.summary, (
        "same-seed hostile runs diverged — provider metering or the "
        "injector consumed nondeterministic state"
    )
    first_trace = TraceAnalysis.from_report(first.report)
    second_trace = TraceAnalysis.from_report(second.report)
    assert first_trace.metrics() == second_trace.metrics(), (
        "same-seed hostile runs produced different trace analytics"
    )

    # Containment invariants, before any gating.
    summary = first.summary
    guests = summary["hostile.guests"]
    assert guests >= 3.0, f"hostile plan launched only {guests:g} guests"
    assert summary["hostile.terminated"] == guests, (
        f"{summary['hostile.terminated']:g}/{guests:g} hostile guests "
        "terminated with SandboxViolation"
    )
    assert summary["hostile.escapes"] == 0.0, (
        f"{summary['hostile.escapes']:g} hostile guests escaped"
    )
    # The strict provider clamps the hungriest guest at exactly the
    # grant — overshoot here means post-hoc metering leaked in.
    assert (
        first.report["metrics"]["hostile.work_units.max"]
        == HOSTILE_GRANT.work_units
    )
    assert (
        summary["security.guest_service_calls"]
        == HOSTILE_GRANT.service_calls
    )

    path = write_report_document("hostile", first.report)
    diff = gate_against_baseline("hostile", report_path=path)
    print(
        f"\nhostile: {first.completed}/{first.requests} benign requests "
        f"completed ({first.completion_rate:.0%}) while {guests:g} hostile "
        f"guests ran; {summary['hostile.terminated']:g} terminated by "
        f"quota, {summary['hostile.escapes']:g} escapes, "
        f"{summary['security.sandbox_violations']:g} sandbox violations "
        f"({len(diff.deltas)} gated metrics)"
    )
