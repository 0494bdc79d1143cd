"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``assess``  — print a design-time paradigm assessment for a task
  described by flags;
* ``report``  — list or render machine-readable run reports (the JSON
  files the benchmarks write under ``benchmarks/results/``);
* ``compare`` — diff two run reports metric by metric with
  higher/lower-is-better direction annotations; ``--fail-on regress``
  exits 1 on a regression past the threshold (the benchmark gate);
* ``trace``   — causal trace analytics on a report's spans: ``summary``
  (per-paradigm latency attribution), ``critical-path`` (the chain of
  spans that bounds each slow invocation), ``slowest`` (ranked table),
  and ``export --format chrome`` (Perfetto / chrome://tracing JSON);
* ``health``  — render a report's fleet-health section (per-node SLO
  states, breach timeline, flight-recorder dumps); ``--strict`` exits
  1 when any node breached a critical threshold (the chaos CI gate);
* ``matrix``  — expand a run-matrix spec (scenarios × fault plans ×
  seeds) and execute it across a worker pool; ``--strict`` replays
  every job in-process and fails on any byte-level report mismatch;
  ``--out`` writes the merged schema-v3 matrix report.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_assess(args: argparse.Namespace) -> int:
    from repro.core import CostWeights, TaskProfile, assess

    profile = TaskProfile(
        interactions=args.interactions,
        request_bytes=args.request_bytes,
        reply_bytes=args.reply_bytes,
        code_bytes=args.code_bytes,
        result_bytes=args.result_bytes,
        work_units=args.work_units,
        expected_reuses=args.reuses,
    )
    weights = CostWeights(time=args.time_weight, money=args.money_weight)
    report = assess(profile, weights=weights)
    print(report.render())
    unanimous = report.unanimous()
    if unanimous:
        print(f"-> {unanimous.upper()} wins in every context")
    return 0


def _results_dir() -> str:
    """The one benchmarks/results/ directory reports are listed and
    looked up in: the working directory's when it has one, even an
    empty one, else the package-relative one."""
    import os

    local = os.path.join("benchmarks", "results")
    if os.path.isdir(local):
        return local
    here = os.path.dirname(__file__)
    return os.path.join(here, os.pardir, os.pardir, "benchmarks", "results")


def _find_report(name: str):
    """Resolve ``name`` to a report path: a file, or ``<name>.json``
    under :func:`_results_dir`."""
    import os

    if os.path.isfile(name):
        return name
    directory = _results_dir()
    for candidate in (
        os.path.join(directory, name),
        os.path.join(directory, f"{name}.json"),
    ):
        if os.path.isfile(candidate):
            return candidate
    return None


def _load_report(name: str):
    """Resolve ``name`` with :func:`_find_report` and load it checked.

    Returns the :class:`~repro.obs.RunReport`, or ``None`` after
    printing a one-line error.
    """
    from repro.obs import ReportSchemaError, RunReport

    path = _find_report(name)
    if path is None:
        print(
            f"error: no report named {name!r} — not a file, and not "
            "found under benchmarks/results/ (run a benchmark first, or "
            "list reports with: python -m repro report)",
            file=sys.stderr,
        )
        return None
    try:
        return RunReport.load_checked(path)
    except ReportSchemaError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_report(args: argparse.Namespace) -> int:
    import glob
    import os

    from repro.obs import ReportSchemaError, RunReport

    if args.name is None:
        found = sorted(glob.glob(os.path.join(_results_dir(), "*.json")))
        if not found:
            print(
                "no run reports found under benchmarks/results/ "
                "(run a benchmark first: pytest benchmarks --quick)"
            )
            return 1
        print(f"{len(found)} run report(s):\n")
        for path in found:
            try:
                report = RunReport.load_checked(path)
            except ReportSchemaError as error:
                print(f"  {os.path.basename(path)}  [unreadable: {error}]")
                continue
            spans = len(report.spans)
            metrics = len(report.metrics)
            print(
                f"  {report.name:32s} sim_time={report.env.get('sim_time')} "
                f"metrics={metrics} spans={spans}"
            )
        print("\nrender one with: python -m repro report <name>")
        return 0
    report = _load_report(args.name)
    if report is None:
        return 1
    print(report.render(top=args.top))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_reports
    from repro.obs.fileio import atomic_write_text

    overrides = {}
    for spec in args.direction or ():
        name, _, direction = spec.partition("=")
        if direction not in ("higher", "lower", "neutral"):
            print(
                f"error: bad --direction {spec!r} "
                "(want NAME=higher|lower|neutral)",
                file=sys.stderr,
            )
            return 2
        overrides[name] = None if direction == "neutral" else direction

    reports = []
    for name in (args.base, args.new):
        report = _load_report(name)
        if report is None:
            return 1
        reports.append(report.to_dict())
    diff = diff_reports(
        reports[0], reports[1],
        threshold=args.threshold,
        overrides=overrides or None,
    )
    if args.out:
        atomic_write_text(args.out, diff.to_json() + "\n")
    if args.json:
        print(diff.to_json())
    else:
        print(diff.render(all_metrics=args.all))
    if args.fail_on == "regress" and diff.regressions:
        return 1
    if args.fail_on == "change" and (
        diff.regressions
        or diff.improvements
        or any(d.verdict == "changed" for d in diff.deltas)
    ):
        return 1
    return 0


def _load_trace_analysis(name: str):
    """Resolve + load a report and build its trace analysis.

    Returns ``(analysis, report)``, or ``(None, None)`` after printing
    a one-line error.
    """
    from repro.obs import TraceAnalysis

    report = _load_report(name)
    if report is None:
        return None, None
    try:
        analysis = TraceAnalysis.from_report(report)
    except (KeyError, TypeError, ValueError) as error:
        print(
            f"error: report {report.name!r} has malformed spans: {error}",
            file=sys.stderr,
        )
        return None, None
    if not analysis.spans:
        print(
            f"error: report {report.name!r} carries no spans — rerun the "
            "benchmark with tracing enabled (trace_enabled=True)",
            file=sys.stderr,
        )
        return None, None
    return analysis, report


def _trace_strict_check(analysis, report) -> int:
    """Apply ``--strict``: exit 1 on reconciliation problems."""
    problems = analysis.problems(report.metrics)
    if problems:
        for problem in problems:
            print(f"strict: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    analysis, report = _load_trace_analysis(args.name)
    if analysis is None:
        return 1
    action = args.action
    if action == "summary":
        print(analysis.render_summary())
    elif action == "critical-path":
        print(analysis.render_critical_path(top=args.top))
    elif action == "slowest":
        print(analysis.render_slowest(count=args.count))
    elif action == "export":
        import json

        from repro.obs.fileio import atomic_write_text

        document = analysis.to_chrome()
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.out:
            atomic_write_text(args.out, text + "\n")
            print(
                f"wrote {len(document['traceEvents'])} trace events to "
                f"{args.out} (load in Perfetto / chrome://tracing)"
            )
        else:
            print(text)
    if args.strict:
        return _trace_strict_check(analysis, report)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.health import render_health

    report = _load_report(args.name)
    if report is None:
        return 1
    health = report.health
    if not health:
        print(
            f"report {report.name!r} carries no health section — either "
            "the run was not armed (World.enable_health / run_chaos "
            "slos=...) or no SLO ever left 'ok'."
        )
        return 0
    print(render_health(report.name, health, report.flight, top=args.top))
    if args.strict:
        states = health.get("states") or {}
        critical_states = sorted(
            node for node, level in states.items() if level == "critical"
        )
        critical_events = [
            event
            for event in health.get("events") or []
            if event.get("to") == "critical"
        ]
        if critical_states or critical_events:
            print(
                "strict: critical breach — "
                f"{len(critical_events)} critical transition(s), "
                f"nodes ending critical: {critical_states or 'none'}",
                file=sys.stderr,
            )
            return 1
    return 0


def _parse_param(text: str):
    """``key=value`` with JSON-typed values (bare words stay strings)."""
    import json

    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"bad --param {text!r}: want key=value"
        )
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _cmd_matrix(args: argparse.Namespace) -> int:
    import json

    from repro.obs.fileio import atomic_write_text
    from repro.runner import MatrixOrchestrator, RunMatrix, seeds_from_text

    try:
        if args.spec:
            matrix = RunMatrix.load(args.spec)
        else:
            plans = []
            for plan in args.plan or ["default"]:
                if plan in ("default", "none"):
                    plans.append(plan)
                else:  # a path to a serialised FaultPlan JSON file
                    with open(plan) as handle:
                        plans.append(json.load(handle))
            matrix = RunMatrix(
                name=args.name,
                scenarios=tuple(args.scenario or ["chaos"]),
                seeds=seeds_from_text(args.seeds),
                plans=tuple(plans),
                params=dict(args.param or []),
            )
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: bad matrix spec: {error}", file=sys.stderr)
        return 2

    try:
        orchestrator = MatrixOrchestrator(
            matrix, workers=args.jobs, strict=args.strict
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(matrix.describe(), file=sys.stderr)
    try:
        result = orchestrator.run()
    except (ValueError, ImportError, AttributeError) as error:
        # Eager scenario resolution: a typo'd name/dotted path fails
        # here as a usage error, before any worker starts.
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.out:
        document = json.dumps(result.report, indent=2, sort_keys=True)
        atomic_write_text(args.out, document + "\n")
        print(f"merged report -> {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_verdict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command")

    assess_cmd = subparsers.add_parser(
        "assess", help="design-time paradigm assessment"
    )
    assess_cmd.add_argument("--interactions", type=int, default=10)
    assess_cmd.add_argument("--request-bytes", type=int, default=200)
    assess_cmd.add_argument("--reply-bytes", type=int, default=2000)
    assess_cmd.add_argument("--code-bytes", type=int, default=40_000)
    assess_cmd.add_argument("--result-bytes", type=int, default=500)
    assess_cmd.add_argument("--work-units", type=float, default=20_000)
    assess_cmd.add_argument("--reuses", type=int, default=1)
    assess_cmd.add_argument("--time-weight", type=float, default=1.0)
    assess_cmd.add_argument("--money-weight", type=float, default=1.0)
    assess_cmd.set_defaults(handler=_cmd_assess)

    report_cmd = subparsers.add_parser(
        "report", help="render a machine-readable run report"
    )
    report_cmd.add_argument(
        "name",
        nargs="?",
        default=None,
        help="report name or path (omit to list all available reports)",
    )
    report_cmd.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows per table in the rendered report",
    )
    report_cmd.set_defaults(handler=_cmd_report)

    compare_cmd = subparsers.add_parser(
        "compare",
        help="diff two run reports; optionally fail on regressions",
        description=(
            "Compare the metrics of two run reports (names or paths; "
            "names resolve under benchmarks/results/).  Each shared "
            "metric is annotated with its direction (higher/lower is "
            "better, from the repro.obs.diff registry) and judged "
            "improved / regressed / unchanged against the relative "
            "threshold.  Exit codes: 0 ok, 1 regression (with "
            "--fail-on) or unreadable input, 2 usage error."
        ),
    )
    compare_cmd.add_argument("base", help="baseline report name or path")
    compare_cmd.add_argument("new", help="candidate report name or path")
    compare_cmd.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative change below this fraction is 'unchanged' "
        "(default 0.05)",
    )
    compare_cmd.add_argument(
        "--fail-on",
        choices=["regress", "change"],
        default=None,
        help="exit 1 when a directional metric regresses past the "
        "threshold ('regress'), or on any thresholded change ('change')",
    )
    compare_cmd.add_argument(
        "--direction",
        action="append",
        metavar="NAME=higher|lower|neutral",
        help="override the direction registry for one metric "
        "(repeatable)",
    )
    compare_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable verdict instead of tables",
    )
    compare_cmd.add_argument(
        "--out",
        default=None,
        help="also write the JSON verdict to this path (CI artifact)",
    )
    compare_cmd.add_argument(
        "--all",
        action="store_true",
        help="show unchanged metrics too in the rendered table",
    )
    compare_cmd.set_defaults(handler=_cmd_compare)

    trace_cmd = subparsers.add_parser(
        "trace",
        help="causal trace analytics on a run report's spans",
        description=(
            "Reconstruct the causal span DAG of a run report and "
            "attribute every invocation's latency to queue / transit / "
            "service / retry time.  Reports resolve like 'repro "
            "report': a path, or a name under benchmarks/results/.  "
            "Exit codes: 0 ok, 1 unreadable report, missing spans, or "
            "(--strict) reconciliation failure."
        ),
    )
    trace_sub = trace_cmd.add_subparsers(dest="action", required=True)

    def _trace_common(sub):
        sub.add_argument("name", help="report name or path (with spans)")
        sub.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 unless bucket sums reconcile with invocation "
            "durations and the paradigm.<kind>.seconds histograms",
        )
        sub.set_defaults(handler=_cmd_trace)

    trace_summary = trace_sub.add_parser(
        "summary", help="per-paradigm latency attribution tables"
    )
    _trace_common(trace_summary)

    trace_critical = trace_sub.add_parser(
        "critical-path",
        help="the span chain bounding each slow invocation",
    )
    trace_critical.add_argument(
        "--top",
        type=int,
        default=3,
        help="number of slowest invocations to profile (default 3)",
    )
    _trace_common(trace_critical)

    trace_slowest = trace_sub.add_parser(
        "slowest", help="ranked table of the slowest invocations"
    )
    trace_slowest.add_argument(
        "-n",
        "--count",
        type=int,
        default=10,
        help="rows to show (default 10)",
    )
    _trace_common(trace_slowest)

    trace_export = trace_sub.add_parser(
        "export", help="export the trace for external viewers"
    )
    trace_export.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        help="output format (chrome: Perfetto / chrome://tracing JSON)",
    )
    trace_export.add_argument(
        "--out",
        default=None,
        help="write to this path instead of stdout",
    )
    _trace_common(trace_export)

    health_cmd = subparsers.add_parser(
        "health",
        help="fleet-health verdicts from a run report's SLO monitors",
        description=(
            "Render the per-node SLO states, breach timeline, and "
            "flight-recorder dumps captured by an armed run "
            "(World.enable_health / run_chaos slos=...).  Reports "
            "resolve like 'repro report': a path, or a name under "
            "benchmarks/results/.  Exit codes: 0 healthy or merely "
            "degraded, 1 unreadable report or (--strict) any critical "
            "breach."
        ),
    )
    health_cmd.add_argument("name", help="report name or path")
    health_cmd.add_argument(
        "--top",
        type=int,
        default=20,
        help="breach-timeline rows to show (default 20)",
    )
    health_cmd.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any critical transition occurred or any node "
        "ends the run at the critical level",
    )
    health_cmd.set_defaults(handler=_cmd_health)

    matrix_cmd = subparsers.add_parser(
        "matrix",
        help="run a scenario x plan x seed matrix across a worker pool",
        description=(
            "Expand a run-matrix spec into jobs, execute them (serially "
            "or on a spawn worker pool), and merge the per-job reports "
            "into one deterministic schema-v3 matrix report.  Exit 0 on "
            "success, 1 on any job failure or strict replay mismatch, "
            "2 on a bad spec."
        ),
    )
    matrix_cmd.add_argument(
        "spec", nargs="?",
        help="path to a matrix spec JSON file (omit to build one from "
        "--scenario/--seeds/--plan flags)",
    )
    matrix_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: serial, in-process)",
    )
    matrix_cmd.add_argument(
        "--strict", action="store_true",
        help="replay every job in-process and fail on any byte-level "
        "report mismatch (the determinism gate)",
    )
    matrix_cmd.add_argument(
        "--out", metavar="PATH",
        help="write the merged matrix report JSON here (atomic)",
    )
    matrix_cmd.add_argument(
        "--json", action="store_true",
        help="print the machine-readable verdict instead of the table",
    )
    matrix_cmd.add_argument(
        "--name", default="matrix",
        help="matrix name for flag-built specs (default: matrix)",
    )
    matrix_cmd.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="scenario name or module:callable (repeatable; default chaos)",
    )
    matrix_cmd.add_argument(
        "--seeds", default="0", metavar="LIST",
        help="seed list '0,1,5' or range '0..7' (default: 0)",
    )
    matrix_cmd.add_argument(
        "--plan", action="append", metavar="SPEC",
        help="fault plan: 'default', 'none', or a FaultPlan JSON file "
        "(repeatable; default: default)",
    )
    matrix_cmd.add_argument(
        "--param", action="append", type=_parse_param, metavar="K=V",
        help="shared scenario parameter, JSON-typed value (repeatable)",
    )
    matrix_cmd.set_defaults(handler=_cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
