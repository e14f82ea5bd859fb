"""Chrome trace-event export: a run's span tree as ``trace.json``.

Renders a finished run's events into the Trace Event JSON format that
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
natively, so "where did the wall-clock go" becomes a flame chart rather
than a grep through ``events.jsonl``:

* every ``span_end`` event becomes a complete (``"ph": "X"``) slice —
  the begin timestamp is reconstructed as ``ts - seconds``, so truncated
  runs whose ``span_begin`` survived but whose ``span_end`` did not
  simply drop the unfinished slice;
* spans merged back from pool workers carry ``worker_pid`` (and, since
  this module existed, ``worker_ts`` with the worker's own wall clock);
  they are drawn in their worker's process track, so a pooled run shows
  one lane per worker pid next to the parent lane;
* a curated set of milestone events (:data:`INSTANT_KINDS`) becomes
  instant (``"ph": "i"``) markers;
* one metadata (``"ph": "M"``) record per process names the track.

Timestamps are microseconds relative to the earliest event in the run
(the format's expected unit); ``validate_trace`` checks the structural
contract the viewers rely on and is what the schema tests call.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from .events import read_events_with_errors

__all__ = [
    "INSTANT_KINDS",
    "build_trace",
    "write_trace",
    "export_run_trace",
    "validate_trace",
]

#: Event kinds rendered as instant markers (``"ph": "i"``).  Deliberately
#: a milestone set — high-cardinality kinds like ``defect_draw`` would
#: drown the chart and belong in metrics, not on the timeline.
INSTANT_KINDS = frozenset(
    {
        "run_start",
        "run_end",
        "epoch_end",
        "fault_inject",
        "pretrain_done",
        "ft_train_start",
        "parallel_map_start",
        "parallel_map_end",
        "parallel_retry",
        "parallel_fallback",
    }
)

#: Allowed phase codes in an exported trace (the subset this module emits).
_PHASES = frozenset({"X", "i", "M"})

#: Valid instant-event scopes per the trace-event format.
_INSTANT_SCOPES = frozenset({"g", "p", "t"})


def _effective_ts(event: dict) -> Optional[float]:
    """Wall-clock seconds for an event, preferring the worker's own clock.

    The parent re-stamps ``ts`` when it re-emits a merged worker event,
    which reflects *merge* time, not when the work happened; the original
    worker timestamp is preserved as ``worker_ts``.
    """
    ts = event.get("worker_ts", event.get("ts"))
    if isinstance(ts, (int, float)):
        return float(ts)
    return None


def _event_pid(event: dict, main_pid: int) -> int:
    pid = event.get("worker_pid")
    if isinstance(pid, int):
        return pid
    return main_pid


def build_trace(events: List[dict]) -> dict:
    """Render parsed run events into a trace-event JSON document.

    Parameters
    ----------
    events:
        Event dicts as read back from ``events.jsonl`` (see
        :func:`repro.telemetry.read_events`); order does not matter.

    Returns
    -------
    dict
        ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — the JSON
        object format, directly serialisable for Perfetto.
    """
    main_pid = 0
    for event in events:
        if event.get("kind") == "run_start" and isinstance(
            event.get("pid"), int
        ):
            main_pid = event["pid"]
            break

    stamps = [t for t in (_effective_ts(e) for e in events) if t is not None]
    origin = min(stamps) if stamps else 0.0

    trace_events: List[dict] = []
    pids_seen = set()
    for event in events:
        kind = event.get("kind")
        ts = _effective_ts(event)
        if kind is None or ts is None:
            continue
        pid = _event_pid(event, main_pid)
        pids_seen.add(pid)
        rel_us = (ts - origin) * 1e6
        if kind == "span_end" and isinstance(
            event.get("seconds"), (int, float)
        ):
            duration_us = max(0.0, float(event["seconds"]) * 1e6)
            trace_events.append(
                {
                    "name": str(event.get("name", "span")),
                    "cat": "span",
                    "ph": "X",
                    "ts": max(0.0, rel_us - duration_us),
                    "dur": duration_us,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "path": event.get("path"),
                        "depth": event.get("depth"),
                    },
                }
            )
        elif kind in INSTANT_KINDS:
            args = {
                key: value
                for key, value in event.items()
                if key not in ("kind", "run_id", "seq", "ts", "worker_ts")
                and isinstance(value, (int, float, str, bool, type(None)))
            }
            trace_events.append(
                {
                    "name": kind,
                    "cat": "event",
                    "ph": "i",
                    "ts": max(0.0, rel_us),
                    "pid": pid,
                    "tid": 0,
                    "s": "p",
                    "args": args,
                }
            )

    for pid in sorted(pids_seen):
        label = "main" if pid == main_pid else f"worker {pid}"
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_trace(events: List[dict], path: str) -> dict:
    """Build a trace document from ``events`` and write it to ``path``."""
    trace = build_trace(events)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return trace


def export_run_trace(run_dir: str) -> str:
    """Render ``<run_dir>/events.jsonl`` to ``<run_dir>/trace.json``.

    The session-close export: it parses the log and builds the trace,
    nothing more (the ``trace`` subcommand writes the events it already
    holds through :func:`write_trace`).  Returns the trace path.
    Corrupt trailing event lines (crashed run) are skipped by the
    reader, so a partial run still yields its intact span prefix.
    """
    events, _ = read_events_with_errors(os.path.join(run_dir, "events.jsonl"))
    trace_path = os.path.join(run_dir, "trace.json")
    write_trace(events, trace_path)
    return trace_path


def validate_trace(trace: dict) -> List[str]:
    """Structural check of a trace document; returns a list of problems.

    An empty list means the document satisfies the contract the viewers
    (and this repo's schema tests) rely on: a ``traceEvents`` array whose
    entries carry a known ``ph``, numeric non-negative ``ts``, integer
    ``pid``/``tid``, a non-negative ``dur`` on complete events, a valid
    scope on instants, and an ``args.name`` on metadata records.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace document is not a JSON object"]
    trace_events = trace.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["traceEvents is missing or not an array"]
    for i, entry in enumerate(trace_events):
        where = f"traceEvents[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = entry.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unknown ph {phase!r}")
            continue
        ts = entry.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        for field in ("pid", "tid"):
            value = entry.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{where}: {field} must be an integer")
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            problems.append(f"{where}: name must be a non-empty string")
        if phase == "X":
            dur = entry.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or dur < 0
            ):
                problems.append(f"{where}: X event needs non-negative dur")
        if phase == "i" and entry.get("s") not in _INSTANT_SCOPES:
            problems.append(f"{where}: instant scope must be one of g/p/t")
        if phase == "M":
            args = entry.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                problems.append(f"{where}: metadata event needs args.name")
    return problems
