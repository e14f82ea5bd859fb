"""Live progress: heartbeat events with throughput and ETA.

A hundred-draw Monte Carlo evaluation (or a thousand-chunk parallel map)
is silent while it runs; the only signals today are the final
``defect_eval``/``parallel_map_end`` events.  :class:`ProgressTracker`
fills the gap:

* :meth:`update` counts completed work units and emits a ``heartbeat``
  event — ``completed``/``total``, units-per-second throughput, elapsed
  and estimated-remaining seconds — rate-limited to at most one every
  ``min_interval`` seconds (plus a final one from :meth:`finish`), so
  heartbeats stay cheap no matter how fast units complete.

The tracker writes to the current telemetry run by default and is a
no-op on a disabled run; clocks are injectable for tests.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["ProgressTracker"]

#: Default minimum seconds between heartbeat events.
DEFAULT_MIN_INTERVAL = 1.0


class ProgressTracker:
    """Counts completed work units; emits rate-limited heartbeats.

    Parameters
    ----------
    total:
        Expected number of work units (``None`` when unknown, ``0`` for a
        legitimately empty sweep — heartbeats then omit the ETA and
        percent rather than dividing by zero).
    label:
        What is being tracked (``"defect_eval p_sa=0.05"``); stamped on
        every event this tracker emits.
    run:
        Telemetry run to record into; defaults to the process-wide
        current run at construction time.
    min_interval:
        Minimum seconds between consecutive heartbeat events.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        total: Optional[int],
        label: str,
        run=None,
        min_interval: float = DEFAULT_MIN_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total is not None and total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if min_interval < 0:
            raise ValueError(f"min_interval must be >= 0, got {min_interval}")
        if run is None:
            from .run import current

            run = current()
        self.total = total
        self.label = label
        self.completed = 0
        self.min_interval = min_interval
        self._run = run
        self._clock = clock
        self._started = clock()
        self._last_heartbeat: Optional[float] = None
        self.heartbeats = 0

    # -- progress -----------------------------------------------------------
    def update(self, n: int = 1) -> None:
        """Record ``n`` completed units; heartbeat if the interval elapsed."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.completed += n
        if not self._run.enabled:
            return
        now = self._clock()
        if (
            self._last_heartbeat is None
            or now - self._last_heartbeat >= self.min_interval
        ):
            self._emit_heartbeat(now)

    def finish(self) -> None:
        """Emit one final heartbeat summarising the whole tracked region."""
        if not self._run.enabled:
            return
        self._emit_heartbeat(self._clock())

    def _emit_heartbeat(self, now: float) -> None:
        # Every division below is guarded: a zero-elapsed first sample
        # (fast unit, coarse clock) yields rate/ETA of None, and a
        # total of 0 (empty sweep) or None yields percent/ETA of None —
        # heartbeats never carry NaN or raise ZeroDivisionError.
        elapsed = max(now - self._started, 0.0)
        rate = self.completed / elapsed if elapsed > 0 else None
        eta = None
        if rate and self.total is not None:
            eta = max(self.total - self.completed, 0) / rate
        percent = (
            100.0 * self.completed / self.total if self.total else None
        )
        self._run.emit(
            "heartbeat",
            label=self.label,
            completed=self.completed,
            total=self.total,
            percent=percent,
            elapsed_seconds=elapsed,
            rate_per_second=rate,
            eta_seconds=eta,
        )
        self._run.metrics.counter("progress/heartbeats_total").inc()
        self._last_heartbeat = now
        self.heartbeats += 1
