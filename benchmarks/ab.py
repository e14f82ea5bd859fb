"""Same-host A/B of the end-to-end benchmark: a revision against this checkout.

Run from the repository root::

    python benchmarks/ab.py REV [--pairs N] [--workload NAME ...]
        [--seconds S] [--seed N]

``REV`` (the parent, side A) is checked out into a temporary git
worktree; side B is this checkout's working tree, uncommitted edits
included.  Each pair runs both sides' ``benchmarks/e2e/run.py -o`` once
with the same arguments, and the side that runs first alternates from
pair to pair, so both see the same phases of a noisy host.  Every run
gets a fresh, empty bytecode cache (``PYTHONPYCACHEPREFIX``): it starts
as a fresh checkout does, and neither side reuses ``__pycache__`` files
the other lacks.  For every
gated metric of ``BENCHMARK.json`` and every workload it then prints one
line::

    eval_resnet peak_rss_mb 67.800 → 65.400 MB (10/10 pairs, parent IQR 0.120): gain

The counts are the pairs the change won (ties count for neither).  The
verdict, with the bound a fraction of the parent's median:

- ``gain``: at least ten pairs, the change won at least nine tenths of
  them, and the medians differ by more than the parent's interquartile
  range;
- ``WORSE``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's interquartile range is wider than the
  bound, so a worsening within it would not show;
- ``within bound`` otherwise.
  Exit status 1 when a run failed or reported an incorrect
output, 0 otherwise.  This script imports nothing from ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("benchmarks", "e2e", "run.py")
#: A gain needs at least this many pairs, and the change to win at least
#: ``WIN_SHARE`` of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def paired_stats(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> dict:
    """Compare paired runs of one metric, parent against change.

    Parameters
    ----------
    parent, change:
        The metric's value in each pair's parent and change run, in pair
        order.
    better:
        ``"lower"`` or ``"higher"``: which direction is an improvement.
    bound:
        The metric's regression bound, a fraction of the parent's median.

    Returns a dict with both medians, ``delta`` (change median minus
    parent median), ``wins``/``losses`` (pairs the change won or lost),
    ``pairs``, the parent's ``iqr`` and the ``verdict`` (see the module
    docstring).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs, >= 1")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (a - b) for a, b in zip(parent, change)]
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = parent[0]
    base, new = statistics.median(parent), statistics.median(change)
    stats = {
        "parent_median": base,
        "change_median": new,
        "delta": new - base,
        "wins": sum(1 for g in gains if g > 0),
        "losses": sum(1 for g in gains if g < 0),
        "pairs": len(parent),
        "iqr": q3 - q1,
    }
    improvement = sign * (base - new)
    allowed = bound * abs(base)
    if (
        len(parent) >= MIN_PAIRS
        and stats["wins"] >= WIN_SHARE * len(parent)
        and improvement > stats["iqr"]
    ):
        stats["verdict"] = "gain"
    elif -improvement > allowed:
        stats["verdict"] = "WORSE"
    elif stats["iqr"] > allowed:
        stats["verdict"] = "unresolved"
    else:
        stats["verdict"] = "within bound"
    return stats


def format_line(workload: str, metric: str, unit: str, stats: dict) -> str:
    """The one report line of a metric on a workload."""
    return (
        f"{workload} {metric} {stats['parent_median']:.3f} → "
        f"{stats['change_median']:.3f} {unit} "
        f"({stats['wins']}/{stats['pairs']} pairs, "
        f"parent IQR {stats['iqr']:.3f}): {stats['verdict']}"
    )


def load_benchmark() -> dict:
    """This checkout's ``BENCHMARK.json``: workloads and gated metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _git(*argv: str) -> str:
    done = subprocess.run(
        ["git", "-C", ROOT, *argv], capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"git {' '.join(argv)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


def _run_side(checkout: str, argv: Sequence[str], output: str) -> dict:
    """One ``run.py -o`` of a checkout; its workload records."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": tempfile.mkdtemp(
        prefix="pycache-", dir=os.path.dirname(output)
    )}
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, RUN), *argv, "-o", output],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        tail = "\n".join((done.stdout + done.stderr).splitlines()[-15:])
        raise SystemExit(
            f"{checkout}: run.py exited {done.returncode}\n{tail}"
        )
    with open(output) as handle:
        return json.load(handle)["workloads"]


def run_pairs(
    parent_dir: str, pairs: int, argv: Sequence[str], scratch: str
) -> Dict[str, List[dict]]:
    """``{"parent": [records...], "change": [...]}``, one per pair."""
    sides = {"parent": parent_dir, "change": ROOT}
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        print(f"# pair {index + 1}/{pairs}: {order[0]} first", flush=True)
        for side in order:
            output = os.path.join(scratch, f"{side}-{index}.json")
            runs[side].append(_run_side(sides[side], argv, output))
    return runs


def report(
    runs: Dict[str, List[dict]], workloads: Sequence[str],
    metrics: Sequence[dict],
) -> int:
    """Print one line per gated metric and workload; 1 on a bad run."""
    status = 0
    for workload in workloads:
        records = {side: [r[workload] for r in runs[side]] for side in runs}
        if any(r.get("skipped") for side in records for r in records[side]):
            print(f"{workload}: skipped (needs 2 CPUs)")
            continue
        for side, side_records in records.items():
            bad = sum(1 for r in side_records if not r["correct"])
            if bad:
                print(f"{workload}: {bad} {side} run(s) not correct")
                status = 1
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in side_records]
                for side, side_records in records.items()
            }
            stats = paired_stats(
                values["parent"], values["change"], metric["better"],
                metric["bound"],
            )
            print(f"# {workload} {name} parent {values['parent']} "
                  f"change {values['change']}")
            print(format_line(workload, name, metric["unit"], stats))
    return status


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(
        description="Interleaved same-host A/B of benchmarks/e2e/run.py: "
                    "REV against this checkout."
    )
    parser.add_argument("rev", help="the parent revision (side A)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: all in BENCHMARK.json)",
    )
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    sha = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    benchmark = load_benchmark()
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    run_argv: List[str] = []
    for workload in workloads:
        run_argv += ["--workload", workload]
    if args.seconds is not None:
        run_argv += ["--seconds", repr(args.seconds)]
    if args.seed is not None:
        run_argv += ["--seed", str(args.seed)]
    print(f"# parent {sha[:12]} vs this checkout; {args.pairs} pair(s) of "
          f"run.py {' '.join(run_argv)}; {os.cpu_count()} CPUs", flush=True)
    scratch = tempfile.mkdtemp(prefix="repro-ab-")
    parent_dir = os.path.join(scratch, "parent")
    _git("worktree", "add", "--detach", parent_dir, sha)
    try:
        runs = run_pairs(parent_dir, args.pairs, run_argv, scratch)
    finally:
        _git("worktree", "remove", "--force", parent_dir)
        shutil.rmtree(scratch, ignore_errors=True)
    return report(runs, workloads, benchmark["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
