#!/usr/bin/env bash
# Function census: run the command set every run or claim depends on
# with the first-call hook armed, then check the result against
# allow.txt.  Run from the repository root:
#
#     bash benchmarks/census/run.sh
#
# The command set: the seven examples, every bench in quick mode
# (benchmarks/e2e's own tests included), one short run of all four e2e
# workloads, and the repro / check_reports.py commands of the CI smoke
# jobs.  pytest-benchmark swaps in its own profiler inside
# ``benchmark.pedantic``, hence --benchmark-disable.  Two micro-kernel
# tests time the hot path against a budget and fail under any profiler;
# they are deselected here and still gate unprofiled in micro-bench.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$ROOT"
export PYTHONPATH="$ROOT/benchmarks/census:$ROOT/src"
rm -rf benchmarks/results/census

for example in examples/*.py; do
    python "$example" > /dev/null
done

python -m pytest benchmarks -q --quick --benchmark-disable -p no:cacheprovider \
    --deselect benchmarks/bench_micro_kernel.py::test_histogram_observe_scaling \
    --deselect benchmarks/bench_micro_kernel.py::test_disabled_tracing_overhead

python3 benchmarks/e2e/run.py --workload all --seconds 1 --repeat 1 > /dev/null

python -m repro report e1_paradigm_traffic > /dev/null
python -m repro report > /dev/null
python -m repro assess > /dev/null
python benchmarks/check_reports.py e1
python -m repro trace summary chaos --strict > /dev/null
python -m repro trace critical-path chaos --top 3 > /dev/null
python -m repro trace export chaos --format chrome \
    --out benchmarks/results/chaos_trace.json --strict
python benchmarks/check_reports.py chaos-trace
python -m repro health chaos --strict > /dev/null
python benchmarks/check_reports.py chaos-health
python benchmarks/check_reports.py chaos-series
python -m repro matrix --scenario chaos --seeds 0..1 --plan default \
    --plan none --jobs 2 --strict --json \
    --out benchmarks/results/matrix_cli.json > /dev/null
python benchmarks/check_reports.py matrix-cli
python benchmarks/check_reports.py hostile
python -m repro trace summary hostile --strict > /dev/null
python -m repro matrix --scenario hostile --seeds 0..1 --plan default \
    --plan none --jobs 2 --strict --json > /dev/null

python benchmarks/census/report.py
