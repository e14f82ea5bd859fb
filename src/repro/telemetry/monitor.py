"""Sampling resource monitor: periodic process-resource snapshots.

Long Monte Carlo runs are invisible between start and finish: a run that
is slowly leaking memory, exhausting file descriptors, or burning CPU in
the wrong place looks exactly like a healthy one until it dies.  The
:class:`ResourceMonitor` closes that gap with a daemon sampling thread
that periodically records a ``resource_sample`` event — RSS, CPU time,
minor page faults, open file descriptors, tracemalloc current/peak —
into the current telemetry run, and feeds the same numbers into registry
instruments so the run's ``metrics.json`` carries the memory profile:

* ``resource/rss_bytes`` (histogram) — resident set size over time;
* ``resource/num_fds`` (histogram) — open descriptors over time;
* ``resource/cpu_seconds`` (gauge) — cumulative user+system CPU time;
* ``resource/max_rss_bytes`` (gauge) — peak RSS observed so far;
* ``resource/minor_faults`` (gauge) — cumulative minor page faults, so
  allocator churn (memory returned and faulted back) shows;
* ``resource/samples_total`` (counter) — how many samples were taken.

A monitor is started in the parent by ``telemetry.session(...,
resources=True)`` (the experiments CLI does this whenever telemetry is
recorded) and inside every ``repro.parallel`` worker chunk when the
parent is monitoring — worker samples ride back to the parent through
the existing :meth:`~repro.telemetry.MetricsRegistry.dump`/``merge``
path and the merged event stream, stamped ``worker_pid`` like every
other worker event.

Everything here is stdlib-only (``/proc/self/*`` with
:mod:`resource`-module fallbacks), samples are taken at most every
``interval`` seconds, and a disabled run makes ``start`` a no-op — so
the monitor can be wired unconditionally without taxing the hot paths.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Callable, Optional

from .scheduling import DeadlineScheduler

__all__ = ["ResourceMonitor", "sample_resources"]

#: Default seconds between samples.
DEFAULT_INTERVAL = 0.5

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def _rusage():
    """This process's ``resource.getrusage``, or ``None`` off POSIX."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    return resource.getrusage(resource.RUSAGE_SELF)


def _rss_bytes() -> Optional[int]:
    """Current resident set size from ``/proc/self/status``, if readable."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _num_fds() -> Optional[int]:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - /proc unavailable
        return None


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def sample_resources() -> dict:
    """One point-in-time resource snapshot of this process.

    Returns a JSON-friendly dict with ``rss_bytes``, ``max_rss_bytes``,
    ``cpu_seconds``, ``minor_faults`` (cumulative minor page faults,
    ``ru_minflt``), ``num_fds`` and — when :mod:`tracemalloc` is
    tracing — ``tracemalloc_current``/``tracemalloc_peak``.  Without
    ``/proc``, ``rss_bytes`` falls back to the peak RSS, the closest
    portable number.  Fields a platform cannot report are ``None``
    rather than absent, so readers see a stable schema.
    """
    usage = _rusage()
    peak = None if usage is None else usage.ru_maxrss * _MAXRSS_UNIT
    rss = _rss_bytes()
    sample = {
        "rss_bytes": peak if rss is None else rss,
        "max_rss_bytes": peak,
        "cpu_seconds": _cpu_seconds(),
        "minor_faults": None if usage is None else usage.ru_minflt,
        "num_fds": _num_fds(),
        "tracemalloc_current": None,
        "tracemalloc_peak": None,
    }
    import tracemalloc

    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        sample["tracemalloc_current"] = current
        sample["tracemalloc_peak"] = peak
    return sample


class ResourceMonitor:
    """Background thread sampling process resources into a telemetry run.

    Parameters
    ----------
    run:
        The :class:`~repro.telemetry.TelemetryRun` to record into;
        defaults to the process-wide current run at :meth:`start` time.
    interval:
        Seconds between samples (default :data:`DEFAULT_INTERVAL`).

    ``start``/``stop`` are idempotent, one sample is taken synchronously
    on each of them (so even a monitor stopped immediately — e.g. around
    a short worker chunk — records the begin/end states), and a disabled
    run makes the whole monitor a no-op.  Usable as a context manager.

    Sampling is paced by a :class:`~repro.telemetry.scheduling.
    DeadlineScheduler` against absolute deadlines, so the period stays
    ``interval`` regardless of how long each sample takes (a plain
    ``Event.wait(interval)`` loop would drift by the sample cost every
    tick).  ``clock``/``waiter`` are forwarded to the scheduler for
    fake-clock tests.
    """

    def __init__(
        self,
        run=None,
        interval: float = DEFAULT_INTERVAL,
        clock: Optional[Callable[[], float]] = None,
        waiter: Optional[Callable[[float], bool]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._run = run
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._clock = clock
        self._waiter = waiter

    @property
    def running(self) -> bool:
        return self._thread is not None

    def _record_sample(self) -> None:
        run = self._run
        sample = sample_resources()
        run.emit("resource_sample", **sample)
        metrics = run.metrics
        metrics.counter("resource/samples_total").inc()
        if sample["rss_bytes"] is not None:
            metrics.histogram("resource/rss_bytes").observe(sample["rss_bytes"])
        if sample["num_fds"] is not None:
            metrics.histogram("resource/num_fds").observe(sample["num_fds"])
        if sample["max_rss_bytes"] is not None:
            metrics.gauge("resource/max_rss_bytes").set(sample["max_rss_bytes"])
        metrics.gauge("resource/cpu_seconds").set(sample["cpu_seconds"])
        if sample["minor_faults"] is not None:
            metrics.gauge("resource/minor_faults").set(sample["minor_faults"])

    def _loop(self) -> None:
        scheduler = DeadlineScheduler(
            self.interval, self._stop, clock=self._clock, waiter=self._waiter
        )
        while scheduler.wait_for_tick():
            self._record_sample()

    def start(self) -> "ResourceMonitor":
        """Take an immediate sample and begin periodic sampling.

        No-op when already running or when the run is disabled.
        """
        if self._thread is not None:
            return self
        if self._run is None:
            from .run import current

            self._run = current()
        if not self._run.enabled:
            return self
        self._record_sample()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Take a final sample and stop the sampling thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        self._stop.set()
        thread.join(timeout=5.0)
        self._record_sample()

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
