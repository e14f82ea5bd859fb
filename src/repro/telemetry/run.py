"""The per-run telemetry aggregate and the process-wide current run.

A :class:`TelemetryRun` bundles the three instruments of this package —
an event log, a metrics registry, and a span tracker — under one run id.
Instrumented call-sites throughout the library ask for the process-wide
current run via :func:`current` and write to it unconditionally; when no
run has been started, :data:`NULL_RUN` (null sink, disabled registry) is
returned, so the default pipeline stays silent and writes no files.

Starting a run against a directory produces::

    <directory>/<run_id>/events.jsonl    (streamed, one event per line)
    <directory>/<run_id>/metrics.json    (registry snapshot, on close)
    <directory>/<run_id>/run.json        (run id + config + provenance, on close)
    <directory>/<run_id>/trace.json      (Perfetto trace export, on close)

Typical use::

    from repro import telemetry

    with telemetry.session("results/telemetry", config={"scale": "ci"}):
        run_table1(scale)                    # instrumented internally
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from typing import Optional

from .events import EventLog, EventSink, JsonlSink, NullSink, new_run_id
from .metrics import MetricsRegistry
from .schema import check_emit
from .timing import SpanTracker

__all__ = [
    "TelemetryRun",
    "NULL_RUN",
    "current",
    "start_run",
    "end_run",
    "detach_run",
    "session",
    "TelemetryLogHandler",
]


class TelemetryRun:
    """One run's events + metrics + spans.

    Parameters
    ----------
    directory:
        Parent directory for run artefacts; a ``<run_id>`` subdirectory
        is created under it.  ``None`` (with no explicit sink) makes the
        run a no-op.
    sink:
        Explicit event sink (e.g. :class:`~repro.telemetry.MemorySink`
        in tests); overrides ``directory``-based sink selection.
    run_id:
        Stable identifier; generated when omitted.
    config:
        Arbitrary JSON-serialisable run provenance (scale, seed, argv…),
        stamped into the ``run_start`` event and ``run.json``.
    resources:
        When true, :meth:`start` attaches a
        :class:`~repro.telemetry.ResourceMonitor` sampling thread to the
        run (stopped automatically on :meth:`close`), and pooled
        ``repro.parallel`` workers start their own monitor per chunk.
    profile:
        When true, :meth:`start` attaches a
        :class:`~repro.telemetry.profiling.StackProfiler` sampling this
        thread's call stacks (flushed as one ``profile_stacks`` event on
        :meth:`close`), and pooled ``repro.parallel`` workers profile
        each chunk the same way.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        sink: Optional[EventSink] = None,
        run_id: Optional[str] = None,
        config: Optional[dict] = None,
        resources: bool = False,
        profile: bool = False,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.config = dict(config) if config else {}
        self.directory: Optional[str] = None
        if sink is None:
            if directory is not None:
                self.directory = os.path.join(directory, self.run_id)
                sink = JsonlSink(os.path.join(self.directory, "events.jsonl"))
            else:
                sink = NullSink()
        self.enabled = not isinstance(sink, NullSink)
        self.events = EventLog(sink, run_id=self.run_id)
        self.metrics = MetricsRegistry(enabled=self.enabled)
        self.spans = SpanTracker(self.events, self.metrics)
        self._closed = False
        self._started_at: Optional[float] = None
        self._resources = bool(resources)
        self._profile = bool(profile)
        self.monitor = None
        self.profiler = None
        self._once_keys: set = set()

    def emit(self, kind: str, **fields) -> Optional[dict]:
        """Record one event (no-op on a disabled run).

        Every event is checked against
        :data:`~repro.telemetry.schema.EVENT_SCHEMAS` first, on enabled
        and disabled runs alike: an undeclared kind, or a field a closed
        kind does not declare, raises ``ValueError``.
        """
        check_emit(kind, fields)
        if not self.enabled:
            return None
        return self.events.emit(kind, **fields)

    def span(self, name: str):
        """Nestable timing scope (see :class:`SpanTracker`)."""
        return self.spans.span(name)

    def once(self, key: str) -> bool:
        """True the first time ``key`` is seen on this run, False after.

        Lets instrumented call-sites emit expensive one-per-run events
        (e.g. the static ``model_cost`` breakdown) from hot loops without
        tracking state themselves.
        """
        if key in self._once_keys:
            return False
        self._once_keys.add(key)
        return True

    @property
    def monitoring(self) -> bool:
        """Whether this run wants resource sampling (parent and workers)."""
        return self.enabled and self._resources

    @property
    def profiling(self) -> bool:
        """Whether this run wants stack sampling (parent and workers)."""
        return self.enabled and self._profile

    def start(self) -> "TelemetryRun":
        """Emit ``run_start`` and start the monitor/profiler it asked for."""
        self._started_at = time.time()
        self.emit("run_start", config=self.config, pid=os.getpid())
        if self.monitoring:
            from .monitor import ResourceMonitor

            self.monitor = ResourceMonitor(run=self).start()
        if self.profiling:
            from .profiling import StackProfiler

            self.profiler = StackProfiler(run=self).start()
        return self

    def _provenance(self, finished_at: float, duration: Optional[float]) -> dict:
        """Run-level provenance persisted in ``run.json`` on close."""
        # Lazy import: repro.bench is a sibling subsystem and must stay
        # importable without telemetry (and vice versa).
        try:
            from ..bench.provenance import git_sha

            sha = git_sha()
        except Exception as exc:  # pragma: no cover - degraded checkout only
            logging.getLogger("repro.telemetry").debug(
                "git provenance unavailable: %s", exc
            )
            sha = None
        return {
            "git_sha": sha,
            "pid": os.getpid(),
            "python": sys.version.split()[0],
            "started_at": self._started_at,
            "finished_at": finished_at,
            "duration_seconds": duration,
        }

    def close(self) -> None:
        """Emit ``run_end``, persist metrics/run/trace artefacts, close the sink."""
        if self._closed or not self.enabled:
            self._closed = True
            return
        if self.profiler is not None:
            # Stop the sampler before anything else: its profile_stacks
            # event must land ahead of run_end, and the final samples
            # should not show the close-out bookkeeping below.
            self.profiler.stop()
            self.profiler = None
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
        finished_at = time.time()
        duration = (
            finished_at - self._started_at
            if self._started_at is not None
            else None
        )
        self.emit("run_end", duration_seconds=duration)
        if self.directory is not None:
            # Only run.json reads provenance: an in-memory session (each
            # captured pool chunk runs one) starts no git subprocess.
            provenance = self._provenance(finished_at, duration)
            os.makedirs(self.directory, exist_ok=True)
            with open(os.path.join(self.directory, "metrics.json"), "w") as f:
                json.dump(self.metrics.snapshot(), f, indent=2)
            with open(os.path.join(self.directory, "run.json"), "w") as f:
                json.dump(
                    {
                        "run_id": self.run_id,
                        "config": self.config,
                        "provenance": provenance,
                    },
                    f,
                    indent=2,
                )
        self.events.close()
        if self.directory is not None and os.path.exists(
            os.path.join(self.directory, "events.jsonl")
        ):
            # Trace export reads the file back (it already holds merged
            # worker events), so it must run after the sink is closed.
            from .trace import export_run_trace

            export_run_trace(self.directory)
        self._closed = True


#: The shared disabled run returned by :func:`current` outside a session.
NULL_RUN = TelemetryRun()

_current: TelemetryRun = NULL_RUN


def current() -> TelemetryRun:
    """The active run, or :data:`NULL_RUN` when telemetry is off."""
    return _current


def start_run(
    directory: Optional[str] = None,
    sink: Optional[EventSink] = None,
    run_id: Optional[str] = None,
    config: Optional[dict] = None,
    resources: bool = False,
    profile: bool = False,
) -> TelemetryRun:
    """Begin a run and install it as the process-wide current run."""
    global _current
    if _current is not NULL_RUN:
        raise RuntimeError(
            "a telemetry run is already active; end_run() it first"
        )
    _current = TelemetryRun(
        directory=directory,
        sink=sink,
        run_id=run_id,
        config=config,
        resources=resources,
        profile=profile,
    ).start()
    return _current


def end_run() -> None:
    """Close the current run and restore the disabled default."""
    global _current
    if _current is not NULL_RUN:
        _current.close()
        _current = NULL_RUN


def detach_run() -> None:
    """Forget the current run *without* closing it.

    For processes that inherit a live run from their parent (forked
    ``repro.parallel`` workers share the parent's module globals,
    including an open JSONL sink).  The child must not write to — or on
    exit close — the parent's event file, so worker initialisation
    detaches unconditionally and captures its own telemetry in a
    :class:`~repro.telemetry.MemorySink` session instead.
    """
    global _current
    _current = NULL_RUN


@contextmanager
def session(
    directory: Optional[str] = None,
    sink: Optional[EventSink] = None,
    run_id: Optional[str] = None,
    config: Optional[dict] = None,
    resources: bool = False,
    profile: bool = False,
):
    """``with telemetry.session(dir):`` — start_run/end_run bracketed."""
    run = start_run(
        directory=directory,
        sink=sink,
        run_id=run_id,
        config=config,
        resources=resources,
        profile=profile,
    )
    try:
        yield run
    finally:
        end_run()


class TelemetryLogHandler(logging.Handler):
    """Forwards ``logging`` records into the current run's event stream.

    Attach it to the ``"repro"`` logger (the CLI does) so progress lines
    land in ``events.jsonl`` alongside the structured pipeline events.
    """

    def emit(self, record: logging.LogRecord) -> None:
        run = current()
        if not run.enabled:
            return
        try:
            run.emit(
                "log",
                level=record.levelname,
                logger=record.name,
                message=record.getMessage(),
            )
        except Exception:  # pragma: no cover - never break the app on logging
            self.handleError(record)
