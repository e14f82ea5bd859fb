"""End-to-end benchmark of the fault-tolerance pipeline.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [-o FILE]
        [--record-golden]

For each workload this process starts fresh child processes
(``child.py``) with BLAS pinned to one thread: four that only set up,
then one that sets up, runs ops in a closed loop for ``--seconds``, and checks
every output.  With ``--trace 1`` that child then replays the ops it
timed under the span tracer, and the per-layer metrics are reported
instead of the end-to-end ones.  This process times set-up, reads peak
memory with ``wait4``, enforces a deadline, and imports nothing from
``repro``.  Every time is a raw ``time.perf_counter`` difference.

Output per workload: ``# ...`` notes, one ``name value unit`` line per
metric, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status 1 when an op failed, 2 when the benchmark
could not run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden.json")
#: Everything the benchmark writes: child scratch space and traces.
OUT = os.path.join(ROOT, ".e2e-bench")
MARK = "@e2e "

WORKLOADS = ("eval_resnet", "ft_train", "sweep_pooled", "fleet_pooled")
#: Workloads that run a two-worker process pool; skipped on one CPU.
POOLED = ("sweep_pooled", "fleet_pooled")
DEFAULT_SECONDS = 15
#: Set-up is timed in this many fresh processes and reported as the median.
SETUP_RUNS = 5
#: Deadline multiplier over the work time recorded in golden.json.
DEADLINE_FACTOR = 3
#: Floor on any child deadline: a first run compiles every .pyc.
MIN_DEADLINE_S = 30.0
#: No invocation may run a workload longer than this.
MAX_WORKLOAD_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The gated metrics.  Op throughput and latency are not among them: on a
#: shared host their raw run-to-run spread is far above the 10% cap on a
#: bound (see README.md), so they are reported only, in the notes and as
#: the per-layer ``e2e.*`` metrics.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Reported, ungated op statistics of the untraced loop.
OP_STATS = {
    "items_per_s": "1/s",
    "op_p50_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark could not measure (as opposed to an op failing)."""


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for target in tracer.TARGETS:
        units[f"{target.name}.calls"] = "1/op"
        units[f"{target.name}.busy_share"] = "ratio"
        units[f"{target.name}.self_share"] = "ratio"
    units[f"{tracer.OP_SPAN}.busy_ms"] = "ms/op"
    units[f"{tracer.OP_SPAN}.self_share"] = "ratio"
    units.update({f"e2e.{name}": unit for name, unit in OP_STATS.items()})
    units.update({
        "datasets.loader.repeat_share": "ratio",
        "reram.cells_drawn": "cells/op",
        "parallel.tasks": "tasks/op",
        "parallel.pooled_maps": "1/op",
        "experiments.pretrain.redundant_share": "ratio",
        "trace_overhead": "ratio",
    })
    return units


# -- statistics ---------------------------------------------------------------
def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def op_stats(ops: Sequence[dict]) -> Dict[str, float]:
    """Throughput and median latency of timed ops."""
    seconds = [op["seconds"] for op in ops]
    return {
        "items_per_s": _share(sum(op["items"] for op in ops), sum(seconds)),
        "op_p50_s": statistics.median(seconds) if seconds else 0.0,
    }


def end_to_end_metrics(
    setup_samples: Sequence[float], peak_kb: int,
) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def layer_metrics(
    trace: dict, stats: Dict[str, float], overhead: float,
) -> Dict[str, float]:
    """Per-op layer metrics from a child's span summary, plus the untraced
    loop's ``stats`` as ``e2e.*``.

    A traced call's time is given as its share of the ops' busy time, and
    only that busy time in ms: a call a workload never makes then reads 0
    as a share, not as a time.
    """
    ops = max(trace["ops"], 1)
    table, counts = trace["table"], trace["counts"]
    unused = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    op = table.get(tracer.OP_SPAN, unused)
    values: Dict[str, float] = {}
    for target in tracer.TARGETS:
        row = table.get(target.name, unused)
        values[f"{target.name}.calls"] = row["calls"] / ops
        values[f"{target.name}.busy_share"] = _share(row["busy_s"], op["busy_s"])
        values[f"{target.name}.self_share"] = _share(row["self_s"], op["busy_s"])
    values[f"{tracer.OP_SPAN}.busy_ms"] = 1000.0 * op["busy_s"] / ops
    values[f"{tracer.OP_SPAN}.self_share"] = _share(op["self_s"], op["busy_s"])
    values.update({f"e2e.{name}": value for name, value in stats.items()})
    values["datasets.loader.repeat_share"] = _share(
        counts.get("datasets.loader.repeat_batches", 0),
        counts.get("datasets.loader.batches", 0),
    )
    values["reram.cells_drawn"] = counts.get("reram.cells_drawn", 0) / ops
    values["parallel.tasks"] = counts.get("parallel.tasks", 0) / ops
    values["parallel.pooled_maps"] = counts.get("parallel.pooled_maps", 0) / ops
    values["experiments.pretrain.redundant_share"] = _share(
        counts.get("experiments.pretrain.redundant_cells", 0),
        counts.get("experiments.pretrain.cells", 0),
    )
    values["trace_overhead"] = overhead
    return values


def trace_overhead(ops: Sequence[dict]) -> float:
    """Traced time over untraced time of the same ops, - 1.

    Op 0 pays one-off warm-up in the untraced loop only; it is left out
    when there is anything else to compare.
    """
    times: Dict[str, List[float]] = {"untraced": [], "traced": []}
    for op in ops:
        times[op["phase"]].append(op["seconds"])
    compared = 1 if len(times["traced"]) > 1 else 0
    return _share(
        sum(times["traced"][compared:]), sum(times["untraced"][compared:])
    ) - 1.0


def failed_ops(ops: Sequence[dict], result: Optional[dict]) -> Tuple[int, int]:
    """(attempted, failed) over finished ops and the child's checks.

    Without a ``result`` the child was stopped at its deadline: the op it
    was running counts as attempted, and every op counts as failed because
    none was checked.
    """
    if result is None:
        attempted = len(ops) + 1
        return attempted, attempted
    bad = {(op["phase"], op["index"]) for op in ops if op["problems"]}
    for key, phase in (("problems", "untraced"), ("traced_problems", "traced")):
        for index, problems in (result.get(key) or {}).items():
            if problems:
                bad.add((phase, int(index)))
    return len(ops), len(bad)


# -- child processes ----------------------------------------------------------
def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers of a killed child), so
    they can be waited for.  Linux only; elsewhere a no-op."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _kill_group(pgid: int) -> bool:
    """SIGKILL a process group; False when it has no member left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _stop_group(pgid: int, grace_s: float = 10.0) -> None:
    """Kill whatever is left of a reaped child's process group, and reap
    the members this process adopted."""
    deadline = time.monotonic() + grace_s
    while _kill_group(pgid) and time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.02)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS"}
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class ChildRun:
    """One finished child: its events, set-up time and resource usage.

    ``started``, ``ready_at`` and ``ended`` are ``time.perf_counter``
    stamps: process start, set-up done, and process reaped.
    """

    def __init__(self) -> None:
        self.started = 0.0
        self.ready_at: Optional[float] = None
        self.ended = 0.0
        self.ops: List[dict] = []
        self.result: Optional[dict] = None
        self.timed_out = False
        self.maxrss_kb = 0
        self.returncode: Optional[int] = None

    @property
    def ready_s(self) -> float:
        """Set-up seconds: process start to inputs ready."""
        return self.ready_at - self.started


def _pump(stream, lines: "queue.Queue") -> None:
    for line in stream:
        lines.put((time.perf_counter(), line))
    lines.put((time.perf_counter(), None))


def run_child(
    workload: str, seed: int, mode: str, seconds: float, scratch: str,
    deadline_s: float, trace_dir: Optional[str] = None,
) -> ChildRun:
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--scratch", scratch,
    ]
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    run = ChildRun()
    lines: "queue.Queue" = queue.Queue()
    run.started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True).start()
        while True:
            remaining = run.started + deadline_s - time.perf_counter()
            try:
                arrived, line = lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                if run.timed_out:  # killed, yet its pipe stays open
                    break
                run.timed_out = True
                _kill_group(proc.pid)
                deadline_s += 10.0  # drain what the child wrote
                continue
            if line is None:
                break
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(MARK):])
            kind = event.pop("kind")
            if kind == "ready":
                run.ready_at = arrived
            elif kind == "op":
                run.ops.append(event)
            elif kind == "result":
                run.result = event
        _, status, usage = os.wait4(proc.pid, 0)
        run.ended = time.perf_counter()
        proc.returncode = run.returncode = os.waitstatus_to_exitcode(status)
        run.maxrss_kb = usage.ru_maxrss
    finally:
        if proc.returncode is None:
            _kill_group(proc.pid)
            proc.wait()
        _stop_group(proc.pid)
        proc.stdout.close()
    if run.ready_at is None:
        raise HarnessError(
            f"{workload}: child exited with status {run.returncode} "
            f"before finishing set-up"
        )
    if mode != "setup" and run.result is None and not run.timed_out:
        raise HarnessError(
            f"{workload}: child exited with status {run.returncode} "
            "without a result"
        )
    return run


# -- one workload -------------------------------------------------------------
@contextmanager
def scratch_dir(workload: str) -> Iterator[str]:
    """A directory for the files a workload's ops write, deleted after."""
    path = os.path.join(OUT, f"tmp-{os.getpid()}-{workload}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def load_golden() -> dict:
    if not os.path.exists(GOLDEN):
        return {"workloads": {}}
    with open(GOLDEN) as handle:
        return json.load(handle)


def deadlines(golden: dict, workload: str, seconds: float, phases: int):
    """(set-up-only, measuring) child deadlines: 3x the recorded work."""
    entry = golden["workloads"].get(workload, {})
    setup = entry.get("setup_seconds")
    op = entry.get("op_seconds")
    if setup is None or op is None:
        return MAX_WORKLOAD_S, MAX_WORKLOAD_S
    work = setup + phases * (seconds + op) + op
    return (
        max(MIN_DEADLINE_S, DEADLINE_FACTOR * setup),
        max(MIN_DEADLINE_S, DEADLINE_FACTOR * work),
    )


def measure(workload: str, args, golden: dict) -> dict:
    began = time.perf_counter()
    mode = "trace" if args.trace else "measure"
    setup_deadline, work_deadline = deadlines(
        golden, workload, args.seconds, 2 if args.trace else 1
    )
    setups: List[ChildRun] = []
    with scratch_dir(workload) as scratch:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_child(
                    workload, args.seed, "setup", args.seconds, scratch,
                    setup_deadline,
                ))
        left = MAX_WORKLOAD_S - (time.perf_counter() - began)
        run = run_child(
            workload, args.seed, mode, args.seconds, scratch,
            min(work_deadline, left), trace_dir=args.trace_dir,
        )
    untraced = [op for op in run.ops if op["phase"] == "untraced"]
    # The first op fills caches and runs lazy imports, once per process
    # and by up to 10% more than the rest: it is checked but not timed.
    timed = untraced[1:] if len(untraced) > 1 else untraced
    attempted, failed = failed_ops(run.ops, run.result)
    children = setups + [run]
    record = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and run.result is not None,
        "timed_out": run.timed_out,
        "setup_samples": [r.ready_s for r in children],
        "ops": run.ops,
        "result": run.result,
        "timed_ops": len(timed),
        "op_stats": op_stats(timed),
    }
    if args.trace:
        values = {}
        if run.result:
            values = layer_metrics(
                run.result["trace"], record["op_stats"], trace_overhead(run.ops)
            )
        units = per_layer_units()
    else:
        values = end_to_end_metrics(
            record["setup_samples"], max(r.maxrss_kb for r in children)
        )
        units = END_TO_END
    record["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    return record


def record_golden(workloads: Sequence[str], golden: dict) -> int:
    """Re-record golden.json entries for seeds 0 and 1."""
    for workload in workloads:
        entry = {"seeds": {}}
        with scratch_dir(workload) as scratch:
            for seed in (0, 1):
                run = run_child(
                    workload, seed, "record", 0.0, scratch, MAX_WORKLOAD_S * 3
                )
                _, failed = failed_ops(run.ops, run.result)
                if failed:
                    print(f"{workload} seed {seed}: {failed} op(s) failed; "
                          "golden.json left unchanged", file=sys.stderr)
                    return 1
                entry["seeds"][str(seed)] = run.result["fingerprints"]
                entry["setup_seconds"] = run.ready_s
                entry["op_seconds"] = run.result["op_seconds"]
        golden["workloads"][workload] = entry
        print(f"# recorded {workload}: "
              f"{len(entry['seeds']['0'])} ops per seed", flush=True)
    golden["note"] = (
        "Output fingerprints of the first ops of seeds 0 and 1, and the "
        "set-up and median op seconds the run deadlines scale from. "
        "Rewrite with: python3 benchmarks/e2e/run.py --record-golden"
    )
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# -- entry point ----------------------------------------------------------------
def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned": dict(PINNED),
        "git_sha": None,
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*argv: str) -> Optional[str]:
            done = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True
            )
            return done.stdout.strip() if done.returncode == 0 else None

        env["git_sha"] = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        env["git_dirty"] = None if status is None else bool(status)
    return env


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the fault-tolerance pipeline."
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: replay the timed ops under the span tracer and report "
             "per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--trace-dir", default=os.path.join(OUT, "trace"))
    parser.add_argument("-o", "--output", help="write the full record as JSON")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    args.workload = args.workload or list(WORKLOADS)
    return args


def report(workload: str, record: dict) -> None:
    print(f"# workload {workload}: {record['attempted']} op(s), "
          f"{record['failed']} failed")
    result = record["result"] or {}
    libs = result.get("env")
    if libs:
        print(f"# numpy {libs['numpy']}, BLAS {libs['blas']} {libs['blas_version']}")
    print(f"# outputs checked against golden.json: "
          f"{result.get('golden_checked', 0)} op(s)")
    stats = record["op_stats"]
    print(f"# timed ops (reported, not gated): n={record['timed_ops']} "
          f"items_per_s={stats['items_per_s']!r} 1/s "
          f"op_p50_s={stats['op_p50_s']!r} s")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    _become_subreaper()
    golden = load_golden()
    try:
        if args.record_golden:
            return record_golden(args.workload, golden)
        env = environment()
        print(f"# env {json.dumps(env, sort_keys=True)}", flush=True)
        records = {}
        for workload in args.workload:
            if workload in POOLED and env["cpus_usable"] < 2:
                print(f"# workload {workload}: skipped, needs 2 CPUs")
                records[workload] = {"skipped": True}
                continue
            records[workload] = measure(workload, args, golden)
            report(workload, records[workload])
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(
                {"env": env, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "workloads": records},
                handle, indent=1, sort_keys=True,
            )
    failed = any(r.get("failed") for r in records.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
