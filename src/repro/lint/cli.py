"""``python -m repro.lint`` — run, baseline, and rules.

Usage::

    python -m repro.lint run                      # lint src/ (default)
    python -m repro.lint run --format json
    python -m repro.lint run --format sarif       # code-scanning output
    python -m repro.lint run --changed            # git-diff-scoped
    python -m repro.lint run src tests --ignore RL007
    python -m repro.lint baseline                 # accept current findings
    python -m repro.lint rules                    # list registered rules

Exit codes: ``run`` exits 0 when no non-baselined finding remains, 1
when any remains — the contract CI gates on — and 2 on usage errors;
``baseline`` and ``rules`` exit 0/2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .baseline import Baseline, BaselineError
from .engine import lint_paths
from .registry import default_registry
from .report import build_document, render_rules, render_text

__all__ = ["build_parser", "main"]

#: Committed at the repo root, next to BENCH_0.json.
DEFAULT_BASELINE = "LINT_BASELINE.json"
DEFAULT_PATHS = ["src"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based static analysis with project-specific "
        "determinism and API-contract rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analysis_args(cmd) -> None:
        cmd.add_argument(
            "paths",
            nargs="*",
            default=None,
            help=f"files/directories to analyse (default: {DEFAULT_PATHS})",
        )
        cmd.add_argument(
            "--select",
            default=None,
            help="comma-separated rule ids to run (default: all)",
        )
        cmd.add_argument(
            "--ignore",
            default=None,
            help="comma-separated rule ids to skip",
        )

    run = sub.add_parser("run", help="analyse the tree; exit 1 on findings")
    add_analysis_args(run)
    run.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json", "sarif"),
        help="report format (default: text)",
    )
    run.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    run.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    run.add_argument(
        "--changed",
        action="store_true",
        help="lint only git-changed files; falls back to the full tree "
        "when project-scope rules are selected or git is unavailable",
    )

    baseline = sub.add_parser(
        "baseline", help="write the current findings as the new baseline"
    )
    add_analysis_args(baseline)
    baseline.add_argument(
        "-o",
        "--output",
        default=DEFAULT_BASELINE,
        help=f"baseline path to write (default: {DEFAULT_BASELINE})",
    )

    rules = sub.add_parser("rules", help="list registered rules")
    rules.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="listing format (default: text)",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [token.strip() for token in raw.split(",") if token.strip()]


def _effective_rule_ids(
    select: Optional[List[str]], ignore: Optional[List[str]]
) -> List[str]:
    from . import rules as _rules  # noqa: F401  (registers built-ins)

    out = []
    for rule in default_registry().rules():
        if select and rule.id not in select:
            continue
        if ignore and rule.id in ignore:
            continue
        out.append(rule.id)
    return out


def _analyse(args):
    paths = args.paths or DEFAULT_PATHS
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"no such path: {path}")
    select = _split_ids(args.select)
    ignore = _split_ids(args.ignore)
    only: Optional[List[str]] = None
    if getattr(args, "changed", False):
        from .changed import scope_to_changed

        only = scope_to_changed(paths, _effective_rule_ids(select, ignore))
        if only is not None and not only:
            return paths, [], True
    findings = lint_paths(paths, select=select, ignore=ignore, only=only)
    return paths, findings, only is not None


def _cmd_run(args) -> int:
    try:
        paths, findings, scoped = _analyse(args)
    except FileNotFoundError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    baseline_path: Optional[str] = None
    baseline = Baseline.empty()
    if not args.no_baseline:
        candidate = args.baseline or DEFAULT_BASELINE
        if args.baseline or os.path.exists(candidate):
            try:
                baseline = Baseline.load(candidate)
            except (OSError, BaselineError) as exc:
                print(f"run: {exc}", file=sys.stderr)
                return 2
            baseline_path = candidate
    new, baselined, stale = baseline.split(findings)
    if scoped:
        # A git-scoped run only saw a file subset: entries matching
        # nothing are expected, not stale debt.
        stale = []
    if args.fmt == "sarif":
        from .sarif import build_sarif

        rules = list(default_registry().rules())
        print(json.dumps(build_sarif(rules, new, baselined), indent=2))
        return 1 if new else 0
    doc = build_document(paths, new, baselined, stale, baseline_path)
    if args.fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc))
    return 1 if new else 0


def _cmd_baseline(args) -> int:
    try:
        _, findings, _ = _analyse(args)
    except FileNotFoundError as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    Baseline.from_findings(findings).write(args.output)
    print(f"{len(findings)} finding(s) baselined -> {args.output}")
    return 0


def _cmd_rules(args) -> int:
    from . import rules as _rules  # noqa: F401  (registers built-ins)

    rules = list(default_registry().rules())
    rendered = render_rules(rules, as_json=args.fmt == "json")
    if args.fmt == "json":
        print(json.dumps(rendered, indent=2))
    else:
        print(rendered)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    return _cmd_rules(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
