"""Chaos benchmark — recovery under the standard fault plan, gated.

Runs the :mod:`repro.faults.chaos` echo workload twice under the
standard fault schedule (link flap, crash/restart, partition/heal,
drop/duplicate/delay/corrupt windows) and enforces three properties:

* **Recovery**: the completion rate stays at or above the 95% floor,
  and the retry/stale-reply tallies stay under their ceilings — all
  encoded in ``benchmarks/baselines/chaos.json`` and checked by the
  shared ``gate_against_baseline`` diff (the same comparison CI
  re-runs as ``python -m repro compare --fail-on regress``).
* **Determinism**: the two same-seed runs must produce bit-identical
  *reports* — spans, message ids, metrics, trace analyses, all of it —
  because chaos results are only diffable when the whole faulted
  trajectory is a pure function of the seed (the invariant
  ``python -m repro matrix --strict`` replays across processes).
* **Trace health**: the runs capture causal spans, so the written
  report is a full document ``python -m repro trace`` can analyse; the
  per-invocation latency attribution must reconcile with the
  ``paradigm.<kind>.seconds`` histograms even under injected faults.
* **Fleet health**: both runs are armed with the four standard
  per-node SLO monitors (completion, stale replies, retry burn,
  reachability).  The fault windows *must* trip degraded verdicts —
  an SLO set that never fires under injected faults is miswired — but
  nothing may go critical: the written report has to survive
  ``python -m repro health chaos --strict``, the same gate CI runs.

``--quick`` shrinks the fleet and request count for CI smoke runs; the
floor document applies to both sizes (its ceilings are sized for the
full run, which the quick run sits comfortably under).
"""

from __future__ import annotations

import json

from repro.__main__ import main as repro_main
from repro.faults import run_chaos, standard_slos
from repro.obs import TraceAnalysis

from _common import gate_against_baseline, quick, write_report_document

SEED = 7


def _params():
    if quick():
        return dict(clients=3, servers=2, requests_per_client=4)
    return dict(clients=4, servers=2, requests_per_client=6)


def test_chaos_recovery_gate():
    params = _params()
    first = run_chaos(
        seed=SEED, trace_enabled=True, slos=standard_slos(), **params
    )
    second = run_chaos(
        seed=SEED, trace_enabled=True, slos=standard_slos(), **params
    )

    # Determinism first: a nondeterministic chaos run is ungateable.
    # The whole report — span attributes and message ids included,
    # since run_chaos scopes the id counter per run — must be byte
    # identical, the same invariant `repro matrix --strict` replays
    # across process boundaries.
    assert json.dumps(first.report, sort_keys=True) == json.dumps(
        second.report, sort_keys=True
    ), (
        "same-seed chaos runs diverged — fault injection or workload "
        "consumed nondeterministic process state"
    )
    first_trace = TraceAnalysis.from_report(first.report)
    second_trace = TraceAnalysis.from_report(second.report)
    assert first_trace.metrics() == second_trace.metrics(), (
        "same-seed chaos runs produced different trace analytics"
    )
    problems = first_trace.problems(first.report["metrics"])
    assert not problems, (
        "trace attribution failed to reconcile:\n" + "\n".join(problems)
    )

    # The fault windows must register on the per-node monitors: degraded
    # transitions prove the SLOs watch the right families, while the
    # strict gate below proves nothing crossed a critical threshold.
    health = first.report["health"]
    assert health, (
        "armed chaos run produced no health section — the standard SLOs "
        "never left 'ok' under injected faults"
    )
    assert health["events"], "health section present but no transitions"
    assert health["verdicts"], "health section present but no verdicts"
    assert all(
        level in ("ok", "degraded")
        for nodes in health["verdicts"].values()
        for level in nodes.values()
    ), f"critical SLO verdict under the standard plan: {health['verdicts']}"
    assert first.report["flight"], (
        "breaches occurred but no flight-recorder dump was captured"
    )

    # Full document (spans included), so `python -m repro trace chaos`
    # works on the written result.
    path = write_report_document("chaos", first.report)
    assert repro_main(["health", path, "--strict"]) == 0, (
        "python -m repro health --strict flagged a critical breach"
    )
    diff = gate_against_baseline("chaos")
    print(
        f"\nchaos: {first.completed}/{first.requests} requests completed "
        f"({first.completion_rate:.0%}) through {first.report['params']['faults']} "
        f"faults; {first.app_retries} app retries, "
        f"{int(first.summary.get('paradigm.cs.retries', 0))} pipeline retries, "
        f"{int(first.summary.get('host.stale_replies', 0))} stale replies "
        f"discarded ({len(diff.deltas)} gated metrics); critical path p99 "
        f"{first_trace.metrics()['trace.critical_path.p99'] * 1000:.1f}ms"
    )
