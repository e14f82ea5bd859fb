"""``python -m repro.telemetry`` — the cross-run ledger CLI.

Usage::

    python -m repro.telemetry ls results/telemetry
    python -m repro.telemetry show results/telemetry/run-…  [--json]
    python -m repro.telemetry diff results/telemetry/run-A run-B
    python -m repro.telemetry trace results/telemetry/run-…
    python -m repro.telemetry flame results/telemetry/run-…  [--format svg]
    python -m repro.telemetry forensics results/telemetry/run-…
    python -m repro.telemetry validate results/telemetry/run-…
    python -m repro.telemetry report results/telemetry [-o report.html]

``ls`` scans the directory, refreshes ``index.json`` and prints one line
per run; ``show`` renders a single run (the ``repro.experiments
summary`` report, or the raw ledger record with ``--json``); ``diff``
compares two runs' metrics/spans; ``trace`` (re-)exports a run's
``trace.json`` for Perfetto; ``flame`` merges the run's sampled
``profile_stacks`` aggregates (parent + workers) into a flamegraph SVG,
collapsed-stack text, or a speedscope JSON profile; ``forensics``
renders the per-layer
deviation heatmap and first-divergence attribution of a run recorded
with fault forensics enabled; ``validate`` checks every recorded event
against the canonical registry (:mod:`repro.telemetry.schema`), exiting
1 on drift; ``report`` builds the self-contained HTML dashboard
(accuracy-vs-P_sa curves, Stability ranking, time/memory breakdowns,
bench sparklines) over every run in the ledger.

Exit codes: 0 on success, 2 on usage errors or missing runs; ``diff``
additionally exits 1 when ``--fail-on-regression`` is given and a
timing regression beyond the threshold was found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .ledger import (
    DEFAULT_REGRESSION_THRESHOLD,
    RunRecord,
    build_index,
    diff_runs,
    render_diff,
)
from .summary import find_run_dir, load_run, render_summary
from .trace import write_trace

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.telemetry",
        description="Cross-run telemetry ledger: list, inspect, compare "
        "and trace-export finished runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="index a telemetry directory and list runs")
    ls.add_argument("directory", help="telemetry parent directory")
    ls.add_argument(
        "--json", action="store_true", help="print the index document as JSON"
    )

    show = sub.add_parser("show", help="render one run's summary")
    show.add_argument("run", help="run directory (or parent; latest run wins)")
    show.add_argument(
        "--json", action="store_true", help="print the ledger record as JSON"
    )
    show.add_argument(
        "--top", type=int, default=None, help="append slowest-N detail tables"
    )

    diff = sub.add_parser("diff", help="compare two runs' metrics and spans")
    diff.add_argument("old", help="baseline run directory")
    diff.add_argument("new", help="candidate run directory")
    diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="relative span/time growth flagged as a regression "
        "(default: %(default)s)",
    )
    diff.add_argument(
        "--json", action="store_true", help="print the diff document as JSON"
    )
    diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when a timing regression beyond the threshold exists",
    )

    trace = sub.add_parser("trace", help="(re-)export a run's trace.json")
    trace.add_argument("run", help="run directory (or parent; latest run wins)")

    flame = sub.add_parser(
        "flame",
        help="export the run's merged sampling profile "
        "(flamegraph SVG, collapsed stacks, or speedscope JSON)",
    )
    flame.add_argument("run", help="run directory (or parent; latest run wins)")
    flame.add_argument(
        "--format",
        dest="fmt",
        default="svg",
        choices=("collapsed", "speedscope", "svg"),
        help="output format (default: %(default)s)",
    )
    flame.add_argument(
        "-o",
        "--output",
        default=None,
        help="write to this file instead of stdout",
    )

    forensics = sub.add_parser(
        "forensics",
        help="per-layer deviation heatmap and first-divergence attribution",
    )
    forensics.add_argument(
        "run", help="run directory (or parent; latest run wins)"
    )
    forensics.add_argument(
        "--metric",
        default="rel_l2",
        choices=("rel_l2", "cosine", "snr_db", "frac_perturbed"),
        help="deviation metric pivoted into the heatmap (default: %(default)s)",
    )
    forensics.add_argument(
        "--json",
        action="store_true",
        help="print the aggregated forensics document as JSON",
    )

    validate = sub.add_parser(
        "validate",
        help="check a run's events against the canonical event schemas",
    )
    validate.add_argument(
        "run", help="run directory (or parent; latest run wins)"
    )
    validate.add_argument(
        "--max-problems",
        type=int,
        default=20,
        help="problems printed before truncating (default: %(default)s)",
    )

    report = sub.add_parser(
        "report",
        help="build the self-contained HTML dashboard over a ledger",
    )
    report.add_argument(
        "directory", help="telemetry parent directory (or one run directory)"
    )
    report.add_argument(
        "-o",
        "--output",
        default=None,
        help="output HTML path (default: <directory>/report.html)",
    )
    report.add_argument(
        "--bench-dir",
        default=".",
        help="directory scanned for BENCH_*.json trend baselines "
        "(default: current directory)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="print the report document as JSON instead of writing HTML",
    )
    return parser


def _cmd_ls(args: argparse.Namespace) -> int:
    index = build_index(args.directory)
    if args.json:
        print(json.dumps(index, indent=2))
        return 0
    records = [RunRecord.from_dict(entry) for entry in index["runs"]]
    if not records:
        print(f"no runs under {args.directory}")
        return 0
    from ..bench.report import format_seconds, format_table

    rows = []
    for record in records:
        sha = (record.git_sha or "-")[:8]
        duration = (
            format_seconds(record.duration_seconds)
            if record.duration_seconds is not None
            else "-"
        )
        config = ", ".join(
            f"{k}={v}" for k, v in sorted(record.config.items())
        )
        rows.append(
            [record.run_id, sha, duration, record.num_events, config or "-"]
        )
    print(format_table(["run", "git", "duration", "events", "config"], rows))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    run = load_run(args.run)
    if args.json:
        print(json.dumps(RunRecord.from_run(run).as_dict(), indent=2))
        return 0
    print(render_summary(run.summary(), top=args.top))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_runs(
        find_run_dir(args.old), find_run_dir(args.new), threshold=args.threshold
    )
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff))
    if args.fail_on_regression and diff["regressions"]:
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    run = load_run(args.run)
    trace_path = os.path.join(run.run_dir, "trace.json")
    write_trace(run.events, trace_path)
    print(trace_path)
    return 0


def _cmd_flame(args: argparse.Namespace) -> int:
    from .profiling import (
        build_speedscope,
        render_collapsed,
        render_flamegraph_svg,
    )

    run = load_run(args.run)
    if run.profile is None or not run.profile["merged"].counts:
        print(
            f"error: run directory {run.run_dir!r} recorded no profile_stacks "
            "events (was the run profiled? enable with "
            "telemetry.session(..., profile=True) or --profile)",
            file=sys.stderr,
        )
        return 2
    merged, interval = run.profile["merged"], run.profile["interval"]
    name = os.path.basename(run.run_dir)
    if args.fmt == "collapsed":
        rendered = render_collapsed(merged)
    elif args.fmt == "speedscope":
        rendered = json.dumps(
            build_speedscope(merged, name=name, interval=interval), indent=2
        )
    else:
        rendered = render_flamegraph_svg(
            merged, title=f"CPU flamegraph — {name}", interval=interval
        )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        print(args.output)
    else:
        print(rendered)
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    from ..forensics.render import render_forensics

    run = load_run(args.run)
    if args.json:
        print(json.dumps(run.forensics, indent=2))
        return 0
    print(render_forensics(run.forensics, metric=args.metric))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .schema import validate_events

    run = load_run(args.run)
    problems = validate_events(run.events)
    if not problems:
        print(
            f"{run.run_dir}: {len(run.events)} event(s) conform to the schema"
        )
        return 0
    shown = problems[: max(args.max_problems, 0)]
    for problem in shown:
        print(problem)
    hidden = len(problems) - len(shown)
    if hidden > 0:
        print(f"... {hidden} more problem(s)")
    print(
        f"{run.run_dir}: {len(problems)} schema problem(s) across "
        f"{len(run.events)} event(s)"
    )
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import build_report, write_report

    if args.json:
        report = build_report(args.directory, bench_dir=args.bench_dir)
        print(json.dumps(report, indent=2))
        return 0
    print(
        write_report(
            args.directory, output=args.output, bench_dir=args.bench_dir
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "ls": _cmd_ls,
        "show": _cmd_show,
        "diff": _cmd_diff,
        "trace": _cmd_trace,
        "flame": _cmd_flame,
        "forensics": _cmd_forensics,
        "validate": _cmd_validate,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
