"""The matrix orchestrator: fan jobs out, merge reports, verify replay.

:class:`MatrixOrchestrator` executes a :class:`~repro.runner.RunMatrix`
either serially in-process or across a ``multiprocessing`` worker pool
(``spawn`` context, so workers import a clean interpreter — the same
start method on every platform, and the one that exposes hidden module
state instead of inheriting it via fork).  Each job is hermetic by
construction: the scenario builds a fresh :class:`~repro.core.World`
(own kernel, RNG streams seeded from the job's seed, own metrics
registry) inside a :func:`~repro.net.message.fresh_message_ids` scope,
so a job's report bytes never depend on which worker ran it or what
ran there before.

That hermeticity is *checked*, not assumed: ``strict=True`` replays
every pooled job in the parent process and demands byte-for-byte
identical report JSON — the cross-process replay invariant that makes
matrix results trustworthy.  Failures never take the matrix down; they
are captured per job and surface in the merged report
(``runner.failures``, ``runner.job_ok{job=...}``) and the CLI verdict.
"""

from __future__ import annotations

import json
import multiprocessing
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from ..net.message import fresh_message_ids
from .merge import merge_matrix_report
from .scenarios import resolve_scenario
from .spec import MatrixJob, RunMatrix

#: Job outcome statuses shipped back from workers.
_OK = "ok"
_ERROR = "error"


def execute_job(job_dict: Dict[str, object]) -> Tuple[str, str, object]:
    """Run one matrix job; the worker-side entry point.

    Takes the job as a plain dict (spawn-picklable either way, but a
    dict keeps the pool payload inspectable) and returns
    ``(job key, status, report dict | error text)``.  Exceptions are
    captured per job so one bad cell cannot poison the pool.
    """
    job = MatrixJob.from_dict(job_dict)
    try:
        target = resolve_scenario(job.scenario)
        with fresh_message_ids():
            report = target(job.seed, plan=job.plan, **job.kwargs)
        if not isinstance(report, dict):
            raise TypeError(
                f"scenario {job.scenario!r} returned "
                f"{type(report).__name__}, want a RunReport dict"
            )
        return job.key, _OK, report
    except Exception as error:  # noqa: BLE001 - per-job containment
        detail = traceback.format_exc(limit=8).strip().splitlines()[-1]
        return job.key, _ERROR, f"{type(error).__name__}: {error} [{detail}]"


def report_bytes(document: Dict[str, object]) -> str:
    """The canonical byte representation replay identity is judged on."""
    return json.dumps(document, sort_keys=True)


@dataclass
class MatrixResult:
    """What one orchestrated matrix run produced."""

    matrix: RunMatrix
    #: Per-job full RunReport dicts, by job key (completed jobs only).
    reports: Dict[str, Dict[str, object]]
    #: Per-job one-line error descriptions (failed jobs only).
    failures: Dict[str, str]
    #: Job keys whose in-process replay did not match the pooled bytes.
    replay_mismatches: List[str]
    #: The merged matrix report (see :mod:`repro.runner.merge`).
    report: Dict[str, object]
    workers: int
    strict: bool
    wall_seconds: float
    replayed: int = 0
    job_order: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.replay_mismatches

    @property
    def verdict(self) -> str:
        return "ok" if self.ok else "failed"

    def to_verdict(self) -> Dict[str, object]:
        """The machine-readable summary the CLI prints/writes."""
        return {
            "name": self.matrix.name,
            "verdict": self.verdict,
            "jobs": len(self.reports) + len(self.failures),
            "completed": len(self.reports),
            "failures": {
                key: self.failures[key] for key in sorted(self.failures)
            },
            "strict": self.strict,
            "replayed": self.replayed,
            "replay_mismatches": sorted(self.replay_mismatches),
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
        }

    def render(self) -> str:
        lines = [
            f"matrix {self.matrix.name!r}: {len(self.reports)}/"
            f"{len(self.reports) + len(self.failures)} job(s) completed "
            f"on {self.workers} worker(s) in {self.wall_seconds:.2f}s"
        ]
        for key in self.job_order:
            if key in self.failures:
                lines.append(f"  FAIL {key}: {self.failures[key]}")
                continue
            marker = (
                "REPLAY-MISMATCH" if key in self.replay_mismatches else "ok"
            )
            metrics = self.reports[key].get("metrics") or {}
            rate = metrics.get("chaos.completion_rate")
            extra = (
                f" completion={rate:g}"
                if isinstance(rate, (int, float))
                else ""
            )
            lines.append(f"  {marker:>4} {key}{extra}")
        if self.strict:
            lines.append(
                f"  strict replay: {self.replayed} job(s) re-run "
                f"in-process, {len(self.replay_mismatches)} mismatch(es)"
            )
        lines.append(f"verdict: {self.verdict.upper()}")
        return "\n".join(lines)


class MatrixOrchestrator:
    """Execute a run matrix and merge the results deterministically.

    ``workers=1`` (the default) runs every job serially in-process —
    no pool, no spawn cost, byte-identical output to any pooled run of
    the same spec.  ``workers>1`` fans jobs across a spawn pool sized
    ``min(workers, len(matrix))``.  ``strict=True`` additionally
    replays every completed job in the parent process and records any
    byte mismatch — the determinism gate.
    """

    def __init__(
        self,
        matrix: RunMatrix,
        workers: int = 1,
        strict: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.matrix = matrix
        self.workers = workers
        self.strict = strict

    def run(self) -> MatrixResult:
        jobs = self.matrix.jobs()
        # Resolve every scenario up front: a typo in the spec fails
        # here with a readable error, not inside N workers at once.
        for name in self.matrix.scenarios:
            resolve_scenario(name)
        started = perf_counter()
        outcomes: Dict[str, Tuple[str, object]] = {}
        pool_size = min(self.workers, len(jobs))
        if pool_size > 1:
            context = multiprocessing.get_context("spawn")
            with context.Pool(processes=pool_size) as pool:
                for key, status, payload in pool.imap_unordered(
                    execute_job, [job.to_dict() for job in jobs]
                ):
                    outcomes[key] = (status, payload)
        else:
            for job in jobs:
                key, status, payload = execute_job(job.to_dict())
                outcomes[key] = (status, payload)

        reports: Dict[str, Dict[str, object]] = {}
        failures: Dict[str, str] = {}
        for key, (status, payload) in outcomes.items():
            if status == _OK:
                reports[key] = payload  # type: ignore[assignment]
            else:
                failures[key] = str(payload)

        mismatches: List[str] = []
        replayed = 0
        if self.strict:
            for job in jobs:
                pooled = reports.get(job.key)
                if pooled is None:
                    continue
                key, status, payload = execute_job(job.to_dict())
                replayed += 1
                if status != _OK or report_bytes(
                    payload  # type: ignore[arg-type]
                ) != report_bytes(pooled):
                    mismatches.append(job.key)

        wall = perf_counter() - started
        merged = merge_matrix_report(
            self.matrix,
            reports,
            failures=failures,
            replay_mismatches=mismatches,
        )
        return MatrixResult(
            matrix=self.matrix,
            reports=reports,
            failures=failures,
            replay_mismatches=mismatches,
            report=merged,
            workers=pool_size,
            strict=self.strict,
            wall_seconds=wall,
            replayed=replayed,
            job_order=[job.key for job in jobs],
        )


def run_matrix(
    matrix: RunMatrix,
    workers: int = 1,
    strict: bool = False,
) -> MatrixResult:
    """One-call convenience wrapper around :class:`MatrixOrchestrator`."""
    return MatrixOrchestrator(matrix, workers=workers, strict=strict).run()
