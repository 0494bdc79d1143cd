"""End-to-end benchmark of the logical-mobility middleware.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W|all] [--seed S]
        [--seconds T] [--trace 0|1] [--repeat K] [--out PATH]

With ``--trace 0`` the workload runs in fresh single-threaded child
processes, one after another, until at least K runs and T wall seconds
of measured phase are done.  Each run times its phases slice by slice
(see ``child.py``); a timed metric sums, over slices, the median of that
slice across runs.  With ``--trace 1`` one untraced and one
cProfile-traced run give the per-layer metrics.  ``--workload all`` (the
default) does both for every workload.  Human-readable tables go to
stdout; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` also writes every
raw value, with quartiles and the environment, as JSON; no result is
written anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

from layers import ALL_LAYERS, HERE, ROOT

CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("chaos_fleet", "paradigm_mix", "mesh_mobile", "mesh_static")
DEFAULT_SEED = 1
DEFAULT_REPEAT = 5
DEFAULT_SECONDS = 10.0
#: No new run starts after this much wall time, so one workload's
#: timed runs end well within three minutes even on a slow machine.
WALL_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 170.0

#: (name, unit, better) of every end-to-end metric, as BENCHMARK.json
#: declares them.
END_TO_END = (
    ("ops_per_s", "ops/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_latency_mean_s", "s", "lower"),
    ("wire_bytes_per_op", "B", "lower"),
)

#: Shown in the tables and written by ``--out``, but not gated: wall
#: throughput carries the machine's noise, and the latency quantiles
#: jump between the modes of multi-modal distributions from seed to
#: seed (whole retry steps, GPRS transfers of different paradigms).
INFO = (
    ("wall_ops_per_s", "ops/s", "higher"),
    ("op_latency_p50_s", "s", "lower"),
    ("op_latency_p99_s", "s", "lower"),
)

#: Per-layer metrics: each layer's share of traced self time and its
#: function calls, then the work counts of single layers.
PER_LAYER = tuple(
    metric
    for layer in ALL_LAYERS
    for metric in (
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
) + (
    ("sim.events", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("net.transport.messages", "count", "lower"),
    ("net.transport.retransmit_ratio", "ratio", "lower"),
    ("net.transport.us_per_message", "us", "lower"),
    ("net.topology.cache_hit_ratio", "ratio", "higher"),
    ("net.topology.revalidations", "count", "lower"),
    ("net.topology.moves", "count", "lower"),
    ("net.routing.paths", "count", "lower"),
    ("net.routing.path_hit_ratio", "ratio", "higher"),
    ("net.routing.flat_fallbacks", "count", "lower"),
    ("core.invocation.invocations", "count", "lower"),
    ("core.invocation.retries_per_call", "ratio", "lower"),
    ("core.invocation.stale_replies", "count", "lower"),
    ("core.paradigms.picks.cs", "count", "higher"),
    ("core.paradigms.picks.rev", "count", "higher"),
    ("core.paradigms.picks.cod", "count", "higher"),
    ("core.paradigms.picks.ma", "count", "higher"),
    ("core.paradigms.picks.local", "count", "higher"),
    ("lmu.cod_hit_ratio", "ratio", "higher"),
    ("lmu.evictions", "count", "lower"),
    ("lmu.bytes_shipped", "B", "lower"),
    ("security.sandbox_runs", "count", "lower"),
    ("security.verifications", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.traced_s", "s", "lower"),
)


class BenchmarkError(Exception):
    """A run could not produce a result."""


def spawn(workload: str, seed: int, scale: float, mode: str) -> dict:
    """One child run; returns its JSON result."""
    try:
        done = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), repr(scale), mode],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload} {mode} run exceeded {CHILD_TIMEOUT_S:.0f}s"
        ) from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} {mode} run failed ({done.returncode}):\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(
    values: List[float], value: Optional[float] = None
) -> Dict[str, object]:
    """``value`` (default: the median) with the quartiles and n of the
    raw per-run values, and the values themselves."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values) if value is None else value,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def sliced_median(runs: List[dict], key: str) -> float:
    """Sum over slices of each slice's median time across runs.

    Runs of one seed do identical work slice by slice, so a burst of
    contention from outside the benchmark slows a slice of one run and
    drops out of the median, where it would shift a whole-run median.
    """
    return sum(statistics.median(times) for times in zip(*(r[key] for r in runs)))


def timed(workload, seed, scale, seconds, repeat) -> dict:
    """Untraced runs until ``repeat`` runs and ``seconds`` measured."""
    runs: List[dict] = []
    started = perf_counter()
    while len(runs) < repeat or sum(r["measured_s"] for r in runs) < seconds:
        if runs and perf_counter() - started > WALL_BUDGET_S:
            break
        runs.append(spawn(workload, seed, scale, "timed"))
    first = runs[0]
    ops = first["ops"]
    metrics = {
        "ops_per_s": summary(
            [ops / sum(r["measured_slices"]) for r in runs],
            ops / sliced_median(runs, "measured_slices"),
        ),
        "setup_s": summary(
            [sum(r["setup_slices"]) for r in runs],
            sliced_median(runs, "setup_slices"),
        ),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in runs]),
        # Simulated outcomes: the digest check makes these identical
        # across runs, so the first run speaks for all.
        "op_latency_mean_s": summary([first["latency_mean_s"]]),
        "wire_bytes_per_op": summary([first["wire_bytes_per_op"]]),
    }
    info = {
        "wall_ops_per_s": summary([ops / r["measured_s"] for r in runs]),
        "op_latency_p50_s": summary([first["latency_p50_s"]]),
        "op_latency_p99_s": summary([first["latency_p99_s"]]),
    }
    return {"runs": runs, "metrics": metrics, "info": info}


def traced(workload, seed, scale) -> dict:
    """One untraced and one traced run; per-layer metrics of the latter."""
    plain = spawn(workload, seed, scale, "timed")
    profiled = spawn(workload, seed, scale, "traced")
    layers = profiled["layers"]
    total = sum(entry["self_s"] for entry in layers.values())
    counts = profiled["counts"]

    def per(layer: str, count: float) -> float:
        return layers[layer]["self_s"] / count * 1e6 if count else 0.0

    values: Dict[str, float] = {}
    for layer, entry in layers.items():
        values[f"{layer}.share"] = entry["self_s"] / total
        values[f"{layer}.calls"] = entry["calls"]
    values.update(counts)
    values.update(
        {
            "sim.us_per_event": per("sim", counts["sim.events"]),
            "net.transport.us_per_message": per(
                "net.transport", counts["net.transport.messages"]
            ),
            "trace.overhead_ratio": profiled["measured_s"] / plain["measured_s"],
            "trace.coverage": 1.0 - values["other.share"],
            "trace.traced_s": profiled["measured_s"],
        }
    )
    return {
        "runs": [plain, profiled],
        "metrics": {name: summary([values[name]]) for name, _, _ in PER_LAYER},
    }


def verdict(runs: List[dict]) -> Dict[str, object]:
    """Correctness over every run of one workload: no wrong result, and
    one simulated outcome (digest) shared by all runs."""
    digests = {run["digest"] for run in runs}
    wrong = sum(run["wrong"] for run in runs)
    return {
        "correct": wrong == 0 and len(digests) == 1,
        "attempted": sum(run["ops"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "wrong": wrong,
        "digests": sorted(digests),
    }


def print_table(title: str, metrics: Dict[str, dict], units: Dict[str, str]):
    print(f"\n{title}")
    print(f"  {'metric':38s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    for name, entry in metrics.items():
        print(
            f"  {name:38s} {entry['value']:14.6g} {entry['q1']:14.6g} "
            f"{entry['q3']:14.6g} {entry['n']:3d}  {units[name]}"
        )


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never look for a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    parser.add_argument("--out", help="also write the full results here")
    return parser.parse_args(argv)


def run(args, scale: float = 1.0) -> dict:
    """Run the requested workloads; returns the full results document."""
    single = args.workload != "all"
    names = [args.workload] if single else list(WORKLOADS)
    modes = [args.trace] if single else [0, 1]
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER + INFO}
    results = {}
    for workload in names:
        for mode in modes:
            if mode:
                part = traced(workload, args.seed, scale)
            else:
                part = timed(workload, args.seed, scale, args.seconds, args.repeat)
            title = f"{workload} ({'traced' if mode else 'timed'}, seed {args.seed})"
            print_table(title, part["metrics"], units)
            entry = results.setdefault(
                workload, {"runs": [], "metrics": {}, "info": {}}
            )
            entry["runs"].extend(part["runs"])
            entry["metrics"].update(part["metrics"])
            if "info" in part:
                print_table("  not gated:", part["info"], units)
                entry["info"].update(part["info"])
    line_metrics = {}
    for workload, entry in results.items():
        entry["verdict"] = verdict(entry["runs"])
        for name, stats in entry["metrics"].items():
            key = name if single else f"{workload}.{name}"
            line_metrics[key] = {"value": stats["value"], "unit": units[name]}
    verdicts = [entry["verdict"] for entry in results.values()]
    line = {
        "correct": all(v["correct"] for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": line_metrics,
    }
    return {
        "line": line,
        "workloads": results,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src: nothing to benchmark",
              file=sys.stderr)
        return 2
    try:
        document = run(args)
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 1
    for workload, entry in document["workloads"].items():
        v = entry["verdict"]
        if not v["correct"]:
            print(f"{workload}: {v['wrong']} wrong results, digests {v['digests']}",
                  file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    print(json.dumps(document["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
