"""Structured run events: JSONL sinks and the event log.

Every telemetry event is a flat JSON object with four bookkeeping fields —
``kind`` (event type), ``run_id``, ``seq`` (monotonic per-run sequence
number) and ``ts`` (wall-clock epoch seconds) — plus arbitrary
event-specific payload fields.  Events are appended to a sink:

* :class:`NullSink`   — discards everything; the default, so telemetry is
  a no-op unless a run is started explicitly;
* :class:`JsonlSink`  — one JSON object per line, append-only, opened
  lazily so constructing a sink never touches the filesystem;
* :class:`MemorySink` — keeps events in a list (tests, ad-hoc inspection).

``read_events`` parses a JSONL file back into the list of dicts, so a
finished run can be reconstructed offline (see
:mod:`repro.telemetry.summary`).  A run that crashed mid-write leaves a
truncated final line; readers skip such corrupt lines (and report how
many) instead of refusing the whole log.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from typing import Callable, List, Optional, Tuple

__all__ = [
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "EventLog",
    "new_run_id",
    "read_events",
    "read_events_with_errors",
]

logger = logging.getLogger("repro.telemetry")


def new_run_id() -> str:
    """A sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    return f"run-{stamp}-{uuid.uuid4().hex[:8]}"


class EventSink:
    """Interface: somewhere events go."""

    def write(self, event: dict) -> None:
        """Deliver one stamped event."""
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - trivial default
        """Push buffered events to their destination."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release the destination."""


class NullSink(EventSink):
    """Discards every event (the disabled-telemetry default)."""

    def write(self, event: dict) -> None:
        pass


class MemorySink(EventSink):
    """Collects events in memory; ``sink.events`` is the list."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)


class JsonlSink(EventSink):
    """Appends events to a JSON-lines file, one object per line.

    The file (and its directory) is created lazily on the first write, so
    merely constructing the sink writes nothing to disk.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def write(self, event: dict) -> None:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a")
        # One write() per event: the sampling-monitor thread emits
        # concurrently with the main thread, and a single write keeps a
        # line from interleaving with another even without the log lock.
        self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class EventLog:
    """Stamps and sequences events, then hands them to a sink.

    Parameters
    ----------
    sink:
        Destination; defaults to :class:`NullSink`.
    run_id:
        Identifier stamped on every event; generated when omitted.
    clock:
        Wall-clock source (epoch seconds); injectable for tests.
    """

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        run_id: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.run_id = run_id if run_id is not None else new_run_id()
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return not isinstance(self.sink, NullSink)

    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the stamped event dict.

        Thread-safe: the resource-monitor thread emits concurrently with
        the main thread, so sequencing and the sink write are guarded.
        """
        event = {
            "kind": kind,
            "run_id": self.run_id,
            "seq": None,
            "ts": self._clock(),
        }
        event.update(fields)
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self.sink.write(event)
        return event

    def flush(self) -> None:
        """Flush the sink."""
        self.sink.flush()

    def close(self) -> None:
        """Close the sink."""
        self.sink.close()


def read_events_with_errors(path: str) -> Tuple[List[dict], int]:
    """Parse a JSONL event file; returns ``(events, n_skipped)``.

    A line that does not parse as a JSON object — typically the
    truncated final line of a crashed run, but any corrupt line is
    handled the same way — is skipped rather than raised, so the intact
    prefix of an interrupted run stays readable.  Skipped lines are
    counted in the second element and logged as a warning naming the
    file and the 1-based line numbers, so truncated JSONL from killed
    workers is diagnosable from the log alone.
    """
    events: List[dict] = []
    bad_lines: List[int] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                bad_lines.append(lineno)
                continue
            if not isinstance(event, dict):
                bad_lines.append(lineno)
                continue
            events.append(event)
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:10])
        if len(bad_lines) > 10:
            shown += f", … ({len(bad_lines) - 10} more)"
        logger.warning(
            "%s: skipped %d corrupt JSONL line(s) at line %s "
            "(truncated run?)",
            path,
            len(bad_lines),
            shown,
        )
    return events, len(bad_lines)


def read_events(path: str) -> List[dict]:
    """Parse a JSONL event file back into a list of event dicts.

    Corrupt lines are skipped (see :func:`read_events_with_errors`,
    which also reports how many were dropped).
    """
    return read_events_with_errors(path)[0]
