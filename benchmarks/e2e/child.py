"""One workload in its own process: set up, run ops, check the outputs.

``run.py`` starts this file with BLAS pinned to one thread and the
checkout's ``src`` as ``PYTHONPATH``.  It answers on stdout with lines
that start with :data:`MARK`, each holding one JSON object:

``ready``   set-up is done (``run.py`` times process start to this line);
``op``      one op returned: phase, index, start (``time.perf_counter``),
            seconds, work items and problems;
``result``  output checks, the golden comparison, the environment and,
            in trace mode, the span summary.

Modes: ``setup`` exits after ``ready``; ``measure`` runs ops for
``--seconds`` and checks them; ``trace`` does the same, then replays the
same ops under the tracer; ``record`` runs each workload's golden op
count and reports the fingerprints ``golden.json`` stores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

MARK = "@e2e "
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden.json")


def send(kind: str, **fields: Any) -> None:
    sys.stdout.write(MARK + json.dumps({"kind": kind, **fields}) + "\n")
    sys.stdout.flush()


def run_ops(
    workload,
    outputs: Dict[int, Any],
    phase: str,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    tracer=None,
) -> List[dict]:
    """Closed loop: ops back to back until ``seconds`` pass or ``count`` ran.

    The workload's ``after_op`` runs between ops, outside the timed region.
    """
    records = []
    start = time.perf_counter()
    index = 0
    while (
        index < count if count is not None
        else time.perf_counter() - start < seconds
    ):
        began = time.perf_counter()
        try:
            if tracer is None:
                items, output = workload.run_op(index)
            else:
                with tracer.op(index):
                    items, output = workload.run_op(index)
        except Exception as exc:
            elapsed = time.perf_counter() - began
            traceback.print_exc()
            items, problems = 0, [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - began
            try:
                outputs[index], problems = workload.after_op(index, output)
            except Exception as exc:
                traceback.print_exc()
                problems = [f"{type(exc).__name__}: {exc}"]
        record = {
            "phase": phase,
            "index": index,
            "start": began,
            "seconds": elapsed,
            "items": items,
            "problems": problems,
        }
        send("op", **record)
        records.append(record)
        index += 1
    return records


def check_outputs(workload, outputs: Dict[int, Any], golden: list) -> dict:
    """Reference checks and the golden comparison, per op index."""
    try:
        problems = workload.check(outputs)
    except Exception as exc:
        traceback.print_exc()
        failure = f"check raised {type(exc).__name__}: {exc}"
        problems = {index: [failure] for index in outputs}
    fingerprints = {}
    checked = 0
    for index, output in sorted(outputs.items()):
        try:
            fingerprints[index] = workload.fingerprint(output)
        except Exception as exc:
            traceback.print_exc()
            problems[index].append(f"fingerprint raised {type(exc).__name__}: {exc}")
            continue
        if index < len(golden):
            checked += 1
            if not workload.matches(fingerprints[index], golden[index]):
                problems[index].append("output differs from golden.json")
    return {"problems": problems, "fingerprints": fingerprints, "golden_checked": checked}


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def trace_phase(
    workload, count: int, fingerprints: Dict[int, Any], trace_dir: str,
    name: str,
):
    """Replay the ``count`` ops the untraced loop finished, under the tracer."""
    import tracer as tracing

    replayed: Dict[int, Any] = {}
    spans = tracing.Tracer()
    with spans:
        run_ops(workload, replayed, "traced", count=count, tracer=spans)
    problems: Dict[int, List[str]] = {}
    for index, output in replayed.items():
        if index in fingerprints and workload.fingerprint(output) != fingerprints[index]:
            problems[index] = ["traced output differs from the untraced one"]
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{name}.spans.jsonl"), "w") as handle:
        for span_id, parent, op, span_name, start, end in spans.spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "op": op, "name": span_name,
                "start": start, "end": end,
            }) + "\n")
    summary = {
        "ops": count,
        "table": tracing.summarize(spans.spans),
        "counts": dict(spans.counts),
    }
    with open(os.path.join(trace_dir, f"{name}.layers.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace", "record"), required=True
    )
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    import repro

    source = os.path.realpath(os.path.join(ROOT, "src", "repro"))
    if os.path.dirname(os.path.realpath(repro.__file__)) != source:
        print(f"repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    send("ready")
    if args.mode == "setup":
        return 0

    golden: list = []
    if args.mode != "record" and os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            entry = json.load(handle).get("workloads", {}).get(args.workload, {})
        golden = entry.get("seeds", {}).get(str(args.seed), [])

    outputs: Dict[int, Any] = {}
    if args.mode == "record":
        untraced = run_ops(workload, outputs, "untraced", count=workload.golden_ops)
    else:
        untraced = run_ops(workload, outputs, "untraced", seconds=args.seconds)
    checks = check_outputs(workload, outputs, golden)
    result = {
        "problems": checks["problems"],
        "golden_checked": checks["golden_checked"],
        "env": blas_info(),
    }
    if args.mode == "record":
        result["fingerprints"] = [checks["fingerprints"][i] for i in sorted(outputs)]
        result["op_seconds"] = statistics.median(r["seconds"] for r in untraced)
    if args.mode == "trace":
        result["trace"], result["traced_problems"] = trace_phase(
            workload, len(untraced), checks["fingerprints"], args.trace_dir,
            args.workload,
        )
    send("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
