"""One benchmark run in a fresh process: set up, then measure.

Usage: ``python child.py WORKLOAD SEED SCALE MODE`` where MODE is
``timed`` (no instrumentation) or ``traced`` (the measured phase runs
under cProfile and its self time is rolled up by layer).  Prints one
JSON object on stdout.  ``run.py`` starts this script; it is not meant
to be run by hand.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import sys
from time import perf_counter

import layers

#: How long :func:`probe` takes between two slices on the reference
#: machine (a 2-vCPU x86-64 container running CPython 3.11).  It fixes
#: the unit of the timed metrics: a reference second is the time in
#: which the machine runs 1 / REF_PROBE_S probes.
REF_PROBE_S = 0.00125


def probe() -> int:
    """A fixed slice of interpreter work — dict inserts, tuple
    allocation, a keyed sort — of the kind the simulator does.  Never
    change it: it defines the unit the timed metrics are reported in."""
    gc.disable()
    try:
        table = {}
        for index in range(3000):
            table[str(index)] = (index, -index)
        return len(sorted(table.items(), key=lambda item: item[1][1]))
    finally:
        gc.enable()


class Stopwatch:
    """Times slices of work; with ``probing`` on, runs :func:`probe`
    after each slice and rescales the slice by it.

    A slowdown from outside the benchmark (another tenant, a frequency
    change) stretches the slice and the probe after it alike, so the
    rescaled slice time stays put while the wall time moves.
    """

    def __init__(self, probing: bool) -> None:
        self.probing = probing
        self.wall: list = []
        self.scaled: list = []
        self.restart()

    def restart(self) -> None:
        self._started = perf_counter()

    def lap(self) -> None:
        wall = perf_counter() - self._started
        self.wall.append(wall)
        if self.probing:
            started = perf_counter()
            probe()
            self.scaled.append(wall * REF_PROBE_S / (perf_counter() - started))
        self.restart()

    def take(self) -> tuple:
        """(wall slices, rescaled slices) so far; starts afresh."""
        taken = (self.wall, self.scaled)
        self.wall, self.scaled = [], []
        return taken


def import_repro():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    src = os.path.join(layers.ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(layers.SRC_REPRO):
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")


def main(argv) -> None:
    workload, seed, scale, mode = argv
    import_repro()
    from workloads import WORKLOADS

    traced = mode == "traced"
    stopwatch = Stopwatch(probing=not traced)
    # Set-up slices: building the world, each warm-up slice, and a full
    # collection so the measured phase starts without set-up garbage.
    load = WORKLOADS[workload](int(seed), float(scale))
    stopwatch.lap()
    load.warm_up(stopwatch.lap)
    gc.collect()
    stopwatch.lap()
    setup_wall, setup_scaled = stopwatch.take()

    profiler = cProfile.Profile() if traced else None
    if profiler is not None:
        profiler.enable()
    stopwatch.restart()
    load.measure(stopwatch.lap)
    if profiler is not None:
        profiler.disable()
    measured_wall, measured_scaled = stopwatch.take()

    result = load.outcome()
    result.update(
        setup_s=sum(setup_wall),
        measured_s=sum(measured_wall),
        setup_slices=setup_scaled,
        measured_slices=measured_scaled,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        result["layers"] = layers.rollup(stats)
        result["counts"].update(
            {
                "sim.events": layers.call_count(stats, "sim/environment", "step"),
                "net.topology.moves": layers.call_count(
                    stats, "net/node", "move_to"
                ),
            }
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
