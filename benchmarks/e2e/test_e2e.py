"""Checks of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import layers
import run

BENCHMARK_JSON = os.path.join(layers.ROOT, "BENCHMARK.json")
#: A population small enough that every workload runs in about a second.
TINY = 0.02


def declared():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def test_every_repro_module_is_in_exactly_one_layer():
    modules = [
        os.path.relpath(os.path.join(folder, name), layers.SRC_REPRO)[: -len(".py")]
        for folder, _dirs, files in os.walk(layers.SRC_REPRO)
        for name in files
        if name.endswith(".py")
    ]
    assert len(modules) > 50
    misplaced = {
        module: found
        for module in modules
        if len(found := layers.matching_layers(module.replace(os.sep, "/"))) != 1
    }
    assert misplaced == {}, f"modules in no layer or in several: {misplaced}"


def test_metric_and_workload_definitions_match_benchmark_json():
    spec = declared()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for section, metrics in (
        ("end_to_end", run.END_TO_END),
        ("per_layer", run.PER_LAYER),
    ):
        assert [
            (m["name"], m["unit"], m["better"]) for m in spec[section]
        ] == list(metrics), section
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_workload_runs_correctly_at_a_tiny_size():
    args = run.parse_args(["--seconds", "0", "--repeat", "2"])
    document = run.run(args, scale=TINY)
    line = document["line"]
    assert line["correct"], {
        name: entry["verdict"] for name, entry in document["workloads"].items()
    }
    assert line["failed"] == 0
    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in run.WORKLOADS:
        emitted = {
            key.split(".", 1)[1]: value["unit"]
            for key, value in line["metrics"].items()
            if key.startswith(workload + ".")
        }
        assert emitted == units, workload
        coverage = document["workloads"][workload]["metrics"]["trace.coverage"]
        assert coverage["value"] >= 0.95, workload


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        layers.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "chaos_fleet"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_sliced_median_drops_a_slow_slice_of_one_run():
    runs = [
        {"slices": [1.0, 2.0]},
        {"slices": [9.0, 2.0]},
        {"slices": [1.0, 50.0]},
    ]
    assert run.sliced_median(runs, "slices") == 1.0 + 2.0
