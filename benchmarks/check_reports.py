"""Checks CI runs on the reports its smoke jobs leave in benchmarks/results.

Usage, from the repository root::

    python benchmarks/check_reports.py {e1,chaos-trace,chaos-health,chaos-series,matrix-cli,hostile}

Each check reads one report written by the step before it, asserts the
report's shape and prints a one-line summary.  ``chaos-health`` also
writes the chaos run's flight-recorder dumps to
``benchmarks/results/chaos_flight.json`` so CI can upload them.  Needs
only the standard library.
"""

from __future__ import annotations

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def load(name: str) -> dict:
    with open(os.path.join(RESULTS_DIR, name)) as handle:
        return json.load(handle)


def check_e1() -> None:
    """The E1 run report is written, parseable and carries spans."""
    report = load("e1_paradigm_traffic.json")
    assert report["schema"] == 3, report["schema"]
    assert report["metrics"], "empty metrics snapshot"
    assert report["spans"], "no spans captured"
    print(f"ok: {len(report['metrics'])} metrics, "
          f"{len(report['spans'])} spans")


def check_chaos_trace() -> None:
    """The chaos run's Chrome trace export is well-formed."""
    document = load("chaos_trace.json")
    events = document["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert complete, "no complete events in chrome export"
    assert all(event["dur"] >= 0 for event in complete)
    assert document["displayTimeUnit"] == "ms"
    print(f"ok: {len(complete)} spans across "
          f"{len({e['pid'] for e in complete})} hosts")


def check_chaos_health() -> None:
    """The armed chaos run carries health verdicts and flight dumps;
    the dumps are written out as their own file."""
    report = load("chaos.json")
    health = report["health"]
    assert health, "armed chaos run carries no health section"
    assert health["states"], "no per-node SLO states"
    assert health["events"], "no breach transitions recorded"
    flight = report["flight"] or {}
    assert flight, "no flight-recorder dumps captured"
    with open(os.path.join(RESULTS_DIR, "chaos_flight.json"), "w") as handle:
        json.dump(flight, handle, indent=2, sort_keys=True)
    print(f"ok: {len(health['events'])} transitions across "
          f"{len(health['states'])} nodes, "
          f"{len(flight)} flight dumps")


def _on_grid(time: float, cadence: float) -> bool:
    steps = time / cadence
    return abs(steps - round(steps)) <= 1e-9 * max(1.0, abs(steps))


def check_chaos_series() -> None:
    """The chaos run's series are swept on the cadence grid: each
    series' times increase strictly, every point but the final capture
    sweep (stamped at the run's end) lies on a multiple of the cadence,
    and so does every health transition the sweeps recorded."""
    report = load("chaos.json")
    section = report["series"]
    assert section and section["series"], "chaos run carries no series"
    cadence = section["cadence"]
    end = report["env"]["sim_time"]
    points = 0
    for name, series in section["series"].items():
        times = series["times"]
        assert all(a < b for a, b in zip(times, times[1:])), (
            f"{name}: times not strictly increasing"
        )
        for index, time in enumerate(times):
            final = index == len(times) - 1 and time == end
            assert final or _on_grid(time, cadence), (
                f"{name}: point at t={time!r} is off the {cadence} s grid"
            )
        points += len(times)
    events = (report["health"] or {}).get("events", [])
    for event in events:
        time = event["time"]
        assert time == end or _on_grid(time, cadence), (
            f"health event at t={time!r} is off the {cadence} s grid"
        )
    print(f"ok: {points} points in {len(section['series'])} series and "
          f"{len(events)} health transitions on the {cadence:g} s grid")


def check_matrix_cli() -> None:
    """The flag-built matrix run merged four jobs with no failure and
    no replay mismatch."""
    report = load("matrix_cli.json")
    assert report["schema"] == 3, report["schema"]
    assert report["metrics"]["runner.failures"] == 0
    assert report["metrics"]["runner.replay_mismatches"] == 0
    assert len(report["nodes"]) == 4, sorted(report["nodes"])
    print(f"ok: {len(report['nodes'])} jobs merged, "
          f"{len(report['metrics'])} metrics")


def check_hostile() -> None:
    """Every hostile guest was terminated, none escaped, and the
    terminations are attributed per node."""
    report = load("hostile.json")
    metrics = report["metrics"]
    guests = metrics["hostile.guests"]
    assert guests >= 3, f"only {guests} hostile guests launched"
    assert metrics["hostile.terminated"] == guests
    assert metrics["hostile.escapes"] == 0
    per_node = [
        key for key in metrics
        if key.startswith("hostile.terminated{node=")
        and metrics[key] > 0
    ]
    assert per_node, "no per-node hostile.terminated attribution"
    print(f"ok: {guests:g} guests terminated across "
          f"{len(per_node)} nodes, 0 escapes")


CHECKS = {
    "e1": check_e1,
    "chaos-trace": check_chaos_trace,
    "chaos-health": check_chaos_health,
    "chaos-series": check_chaos_series,
    "matrix-cli": check_matrix_cli,
    "hostile": check_hostile,
}


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(f"usage: check_reports.py {{{','.join(CHECKS)}}}", file=sys.stderr)
        return 2
    CHECKS[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
