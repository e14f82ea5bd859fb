"""Observability for the train/inject/evaluate pipeline.

Three instruments, bundled per run and opt-in (the default is a no-op
null run that writes nothing):

* :mod:`~repro.telemetry.events`  — structured JSONL run events;
* :mod:`~repro.telemetry.metrics` — process-local counters / gauges /
  histograms in a :class:`MetricsRegistry`;
* :mod:`~repro.telemetry.timing`  — :class:`Stopwatch`, nestable
  :meth:`~TelemetryRun.span` scopes and the per-layer
  :class:`ModuleProfiler`.

The library's call-sites (trainers, fault injector, defect evaluation,
fleet simulation, experiment runner) write to :func:`current`, so
enabling telemetry is one line::

    from repro import telemetry

    with telemetry.session("results/telemetry"):
        run_table1(get_scale("ci"))

On top of the per-run instruments sit the cross-run tools: every closed
run directory also gets a Perfetto-loadable ``trace.json``
(:mod:`~repro.telemetry.trace`), and :mod:`~repro.telemetry.ledger`
indexes a directory of runs into ``index.json`` for the
``python -m repro.telemetry ls|show|diff|trace`` CLI.

Schema and metric names are documented in ``docs/OBSERVABILITY.md``;
every event kind and its fields are declared once in
:mod:`~repro.telemetry.schema`.  :meth:`TelemetryRun.emit` rejects an
event that does not match it, lint rules RL011/RL012 check the readers
against it, and a recorded run is checked against it with ``python -m
repro.telemetry validate``.  A finished run is inspected with ``python
-m repro.experiments summary``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "events": (
            "EventLog", "EventSink", "NullSink", "MemorySink", "JsonlSink",
            "new_run_id", "read_events", "read_events_with_errors",
        ),
        "ledger": (
            "RunRecord", "scan_runs", "build_index", "runs_by_config",
            "load_index", "diff_runs",
        ),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "monitor": ("ResourceMonitor", "sample_resources"),
        "profiling": (
            "DEFAULT_PROFILE_INTERVAL", "StackAggregate", "StackSampler",
            "StackProfiler", "merge_profile_events", "function_totals",
            "render_collapsed", "build_speedscope", "validate_speedscope",
            "render_flamegraph_svg",
        ),
        "progress": ("ProgressTracker",),
        "scheduling": ("DeadlineScheduler",),
        "run": (
            "TelemetryRun", "TelemetryLogHandler", "NULL_RUN", "current",
            "start_run", "end_run", "detach_run", "session",
        ),
        "report": ("build_report", "render_report", "write_report"),
        "schema": (
            "EVENT_SCHEMAS", "known_kinds", "fields_for", "validate_event",
            "validate_events",
        ),
        "summary": ("find_run_dir", "summarize_run", "render_summary"),
        "timing": (
            "Stopwatch", "SpanTracker", "ModuleProfiler", "named_modules",
        ),
        "trace": (
            "build_trace", "write_trace", "export_run_trace", "validate_trace",
        ),
    },
)
