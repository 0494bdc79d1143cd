"""Seed-stable merge of per-job RunReports into one matrix report.

The merge is a *pure function* of the job reports: jobs are folded in
sorted-key order whatever order the worker pool finished them in, so
the merged document is bit-identical across runs, worker counts, and
machines (two different ``--jobs`` values produce the same bytes).

The document reuses the schema-v3 vocabulary end to end:

* every job's flat (unlabeled) metrics are re-emitted as labeled
  children ``metric{job="scenario/plan/s7"}`` — the same
  ``labeled_name`` convention per-node metrics use — and
  ``rollup_by_label(..., "job")`` turns them into the per-job sections
  under ``nodes``, so ``python -m repro report`` renders a matrix
  report with zero new code;
* cross-job aggregates land under ``agg.<metric>.<stat>`` with
  ``min``/``p50``/``p90``/``max``/``mean`` stats — and because the
  :mod:`repro.obs.diff` direction globs match on substrings
  (``*completion_rate*``, ``*seconds*``), aggregates inherit their
  base metric's higher/lower-is-better semantics in baselines for
  free;
* the orchestrator's own figures live in the ``runner.*`` family
  (jobs, failures, replay mismatches) — deliberately *excluding* wall
  time, so the merged report stays deterministic; wall-clock numbers
  belong to benchmarks and the CLI verdict, not the document.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..obs.report import SCHEMA_VERSION
from ..sim.metrics import (
    interpolated_quantile,
    labeled_name,
    rollup_by_label,
    split_labeled,
)
from .spec import RunMatrix

#: Cross-job aggregate statistics, in emission order.
AGG_STATS = ("min", "p50", "p90", "max", "mean")


def _aggregate(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p50": interpolated_quantile(ordered, 0.5),
        "p90": interpolated_quantile(ordered, 0.9),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
    }


def merge_matrix_report(
    matrix: RunMatrix,
    results: Mapping[str, Mapping[str, object]],
    failures: Optional[Mapping[str, str]] = None,
    replay_mismatches: Sequence[str] = (),
) -> Dict[str, object]:
    """Fold per-job report dicts into one deterministic matrix report.

    ``results`` maps job key → full RunReport dict; ``failures`` maps
    job key → one-line error description for jobs that raised instead
    of reporting.  Iteration is over *sorted* keys everywhere, so the
    output is independent of completion order.
    """
    failures = dict(failures or {})
    metrics: Dict[str, float] = {}
    kind_counts: Dict[str, int] = {}
    by_name: Dict[str, List[float]] = {}
    sim_time_total = 0.0
    created_at = 0.0

    for key in sorted(results):
        document = results[key]
        job_metrics = document.get("metrics") or {}
        for name in sorted(job_metrics):  # type: ignore[arg-type]
            value = job_metrics[name]  # type: ignore[index]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            base, labels = split_labeled(name)
            if labels:
                # Per-node children stay inside the job's own report;
                # re-labeling them would nest label sets the snapshot
                # grammar has no syntax for.
                continue
            metrics[labeled_name(base, {"job": key})] = float(value)
            by_name.setdefault(base, []).append(float(value))
        for kind, count in sorted(
            (document.get("kind_counts") or {}).items()  # type: ignore[union-attr]
        ):
            kind_counts[kind] = kind_counts.get(kind, 0) + int(count)
        env = document.get("env") or {}
        sim_time = env.get("sim_time")  # type: ignore[union-attr]
        if isinstance(sim_time, (int, float)):
            sim_time_total += float(sim_time)
        stamp = document.get("created_at")
        if isinstance(stamp, (int, float)):
            created_at = max(created_at, float(stamp))

    for base in sorted(by_name):
        for stat, value in _aggregate(by_name[base]).items():
            metrics[f"agg.{base}.{stat}"] = value

    # Per-job success indicator: failed jobs appear in the rollup too,
    # so `repro report` shows exactly which cells died.
    for key in sorted(results):
        metrics[labeled_name("runner.job_ok", {"job": key})] = 1.0
    for key in sorted(failures):
        metrics[labeled_name("runner.job_ok", {"job": key})] = 0.0

    metrics.update(
        {
            "runner.jobs": float(len(results) + len(failures)),
            "runner.completed_jobs": float(len(results)),
            "runner.failures": float(len(failures)),
            "runner.replay_mismatches": float(len(replay_mismatches)),
            "runner.sim_seconds_total": sim_time_total,
        }
    )

    import platform
    import sys

    import repro

    return {
        "schema": SCHEMA_VERSION,
        "name": matrix.name,
        # The latest job's (sim-time) stamp: deterministic, and still
        # "when the matrix ended" in simulated terms.
        "created_at": created_at,
        # Worker count and wall time are deliberately absent: the
        # merged document must not depend on *how* the matrix was
        # executed, only on what the jobs reported.
        "env": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "repro_version": repro.__version__,
            "jobs": len(results) + len(failures),
            "scenarios": len(matrix.scenarios),
            "seeds": len(matrix.seeds),
            "plans": len(matrix.plans),
        },
        "params": matrix.to_dict(),
        "metrics": metrics,
        "kind_counts": kind_counts,
        "spans": [],
        "series": None,
        "nodes": rollup_by_label(metrics, label="job") or None,
        "health": None,
        "flight": None,
    }
