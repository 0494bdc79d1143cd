"""Shared plumbing for the experiment benchmarks.

Each ``bench_eN_*.py`` regenerates one table/figure of the evaluation
defined in DESIGN.md §3: it runs the sweep once (wrapped in
``benchmark.pedantic`` for a wall-clock row), prints the rendered
table, writes it to ``benchmarks/results/``, and asserts the expected
qualitative shape.

Two longitudinal mechanisms live here (see docs/OBSERVABILITY.md,
"Comparing runs"):

* **Trajectory store** — every report write also appends one JSONL
  entry (git SHA, timestamp, numeric metrics) to
  ``benchmarks/results/trajectory.jsonl``, so the perf history of the
  repository is a greppable, diffable log.  Appends are single locked
  ``O_APPEND`` writes and report files land atomically (temp +
  rename), so concurrent benches can't tear lines or truncate
  reports — see :mod:`repro.obs.fileio`;
* **Baseline gate** — ``gate_against_baseline`` compares a fresh
  report against the checked-in floor document under
  ``benchmarks/baselines/`` with ``repro.obs.diff`` (direction-aware,
  relative thresholds), replacing per-script hand-rolled floor
  asserts.  Each gate writes its verdict to
  ``benchmarks/results/verdicts/<name>.json``, the same document
  ``python -m repro compare --out`` writes, and CI uploads it.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Generator, Optional

from repro.core import World
from repro.obs import (
    RunReport,
    append_jsonl,
    atomic_write_text,
    wall_time,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
VERDICTS_DIR = os.path.join(RESULTS_DIR, "verdicts")
BASELINES_DIR = os.path.join(os.path.dirname(__file__), "baselines")
TRAJECTORY_PATH = os.path.join(RESULTS_DIR, "trajectory.jsonl")

_git_sha_cache: Optional[str] = None


def quick() -> bool:
    """True when the run should shrink sweeps (CI smoke mode).

    Set by ``pytest benchmarks --quick`` (see conftest.py) or the
    ``REPRO_QUICK`` environment variable.
    """
    return bool(os.environ.get("REPRO_QUICK"))


def run_process(world: World, generator: Generator):
    """Run a generator as a kernel process to completion."""
    process = world.env.process(generator)
    return world.run(until=process)


def instrument(
    world: World,
    series_cadence: Optional[float] = None,
    series_capacity: int = 256,
) -> None:
    """Switch on full observability for ``world``.

    Enables the span tracer (normally off in benchmark worlds), so the
    run report carries span trees.  With ``series_cadence`` set, also
    attaches a :class:`~repro.obs.TimeSeriesRecorder` at that sim-time
    cadence (ring-capped at ``series_capacity`` points per series), so
    the report carries per-epoch ``series`` too.
    """
    world.tracer.enabled = True
    if series_cadence is not None:
        world.sample_series(cadence=series_cadence, capacity=series_capacity)


def git_sha() -> str:
    """The current commit's short SHA ("unknown" outside a checkout)."""
    global _git_sha_cache
    if _git_sha_cache is None:
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip() or "unknown"
        except Exception:
            _git_sha_cache = "unknown"
    return _git_sha_cache


def append_trajectory(
    name: str,
    metrics: dict,
    params: Optional[dict] = None,
) -> str:
    """Append one run's key figures to the benchmark trajectory log.

    The log is append-only JSONL — one self-contained entry per run
    (benchmark name, git SHA, wall-clock timestamp, quick flag, every
    numeric metric) — and is committed, so successive PRs accumulate a
    machine-readable perf history that ``repro compare`` can diff.
    """
    entry = {
        "name": name,
        "sha": git_sha(),
        "timestamp": wall_time(),
        "quick": quick(),
        "params": params or {},
        "metrics": {
            key: float(value)
            for key, value in sorted(metrics.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    # One locked O_APPEND write per entry: concurrent appenders (e.g.
    # xdist workers, a matrix bench and a chaos bench racing) can never
    # interleave partial lines.  Plain ``open(path, "a")`` could.
    append_jsonl(TRAJECTORY_PATH, entry)
    return TRAJECTORY_PATH


def baseline_path(name: str) -> str:
    """The checked-in baseline for ``name`` (quick variant preferred
    in quick mode when one exists)."""
    if quick():
        candidate = os.path.join(BASELINES_DIR, f"{name}_quick.json")
        if os.path.isfile(candidate):
            return candidate
    return os.path.join(BASELINES_DIR, f"{name}.json")


def gate_against_baseline(
    name: str,
    report_path: Optional[str] = None,
    threshold: float = 0.0,
    overrides: Optional[dict] = None,
):
    """The shared benchmark regression gate.

    Diffs the freshly written report against the committed floor
    baseline (``benchmarks/baselines/<name>[_quick].json``) with the
    direction registry, and fails the test on any regression past
    ``threshold``.  Returns the :class:`~repro.obs.diff.ReportDiff` so
    callers can print or inspect it.  The baselines hold *floor*
    values (e.g. ``speedup: 5.0``), so with the default threshold 0.0
    this is exactly "never worse than the floor" — one mechanism for
    every bench.  The verdict lands at
    ``benchmarks/results/verdicts/<name>.json`` before any failure is
    raised, so a failing gate still leaves it for upload.
    """
    from repro.obs.diff import diff_report_files

    base = baseline_path(name)
    if not os.path.isfile(base):
        raise FileNotFoundError(
            f"no baseline for {name!r} under benchmarks/baselines/ — "
            "commit one before gating on it"
        )
    if report_path is None:
        report_path = os.path.join(RESULTS_DIR, f"{name}.json")
    diff = diff_report_files(
        base, report_path, threshold=threshold, overrides=overrides
    )
    atomic_write_text(
        os.path.join(VERDICTS_DIR, f"{name}.json"), diff.to_json() + "\n"
    )
    if diff.regressions:
        raise AssertionError(
            f"regression against baseline {os.path.basename(base)}:\n\n"
            + diff.render()
        )
    return diff


def write_report(
    name: str,
    world: World,
    params: Optional[dict] = None,
) -> str:
    """Capture a RunReport for ``world`` and write it as JSON.

    The file lands at ``benchmarks/results/<name>.json`` — the
    machine-readable sibling of the rendered ``.txt`` table — and the
    run is appended to the trajectory log.  Render it later with
    ``python -m repro report <name>``, or diff two runs with
    ``python -m repro compare``.
    """
    report = RunReport.capture(name, world, params=params)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    report.write(path)
    append_trajectory(name, report.metrics, params=params)
    return path


def write_report_data(
    name: str,
    metrics: Optional[dict] = None,
    params: Optional[dict] = None,
) -> str:
    """Write a bare RunReport (for analytical benches with no World)."""
    report = RunReport(name=name, metrics=metrics, params=params)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    report.write(path)
    append_trajectory(name, report.metrics, params=params)
    return path


def write_report_document(name: str, document: dict) -> str:
    """Write an already-captured RunReport dict verbatim.

    For benches whose harness captures the report itself (e.g.
    ``run_chaos``): the full document — spans included, so ``python -m
    repro trace`` works on the result — lands at
    ``benchmarks/results/<name>.json`` and its metrics are appended to
    the trajectory log, exactly like :func:`write_report`.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    # Atomic (temp + rename): a crash mid-write leaves the previous
    # report intact instead of a truncated JSON file that poisons
    # every later ``repro compare`` against it.
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    metrics = document.get("metrics") or {}
    append_trajectory(name, metrics, params=document.get("params"))
    return path


def write_result(name: str, text: str) -> str:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    atomic_write_text(path, text + "\n")
    print()
    print(text)
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
