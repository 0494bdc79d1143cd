"""Parallel run-matrix orchestration with deterministic replay.

The runner package turns "run the chaos suite across 8 seeds and 3
fault plans" from a shell loop into a first-class object:

* :class:`RunMatrix` — the declarative spec (scenarios × plans ×
  seeds × params), JSON round-trip, deterministic job expansion;
* :class:`MatrixOrchestrator` / :func:`run_matrix` — executes the
  matrix serially or across a spawn-safe ``multiprocessing`` pool,
  with optional strict in-process replay of every job;
* :func:`merge_matrix_report` — folds per-job RunReports into one
  schema-v3 matrix report, independent of completion order;
* ``python -m repro matrix spec.json [--jobs N] [--strict]`` — the
  CLI entry point with a machine-readable verdict.

See "The run matrix" in docs/OBSERVABILITY.md.
"""

from .merge import AGG_STATS, merge_matrix_report
from .orchestrator import (
    MatrixOrchestrator,
    MatrixResult,
    execute_job,
    report_bytes,
    run_matrix,
)
from .scenarios import SCENARIOS, resolve_scenario
from .spec import MatrixJob, RunMatrix, plan_label, seeds_from_text

__all__ = [
    "AGG_STATS",
    "MatrixJob",
    "MatrixOrchestrator",
    "MatrixResult",
    "RunMatrix",
    "SCENARIOS",
    "execute_job",
    "merge_matrix_report",
    "plan_label",
    "report_bytes",
    "resolve_scenario",
    "run_matrix",
    "seeds_from_text",
]
