"""Wall-clock instrumentation: stopwatches, nestable spans, module hooks.

Three layers of timing granularity:

* :class:`Stopwatch` — a monotonic-clock accumulator for ad-hoc timing
  (used by the trainers to record per-epoch wall time);
* :class:`SpanTracker` — nestable ``with tracker.span("pretrain"):``
  scopes that emit ``span_begin``/``span_end`` events (with the full
  ``outer/inner`` path) and feed a ``span_seconds/<full/path>``
  histogram, so identically-named spans under different parents stay
  distinct;
* :class:`ModuleProfiler` — wraps every submodule's ``forward`` and
  ``backward`` with timing shims, recording per-layer
  ``forward_seconds/<layer>`` and ``backward_seconds/<layer>``
  histograms.  Timings are *inclusive* (a container's time includes its
  children's).  Detach the profiler before deep-copying the model.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from .events import EventLog
from .metrics import MetricsRegistry

__all__ = ["Stopwatch", "SpanTracker", "ModuleProfiler", "named_modules"]


class Stopwatch:
    """Monotonic-clock stopwatch; accumulates across start/stop cycles."""

    def __init__(self) -> None:
        self._accumulated = 0.0
        self._started_at: Optional[float] = None

    @property
    def running(self) -> bool:
        return self._started_at is not None

    @property
    def elapsed(self) -> float:
        """Total accumulated seconds (including the live segment)."""
        live = (
            time.perf_counter() - self._started_at if self.running else 0.0
        )
        return self._accumulated + live

    def start(self) -> "Stopwatch":
        """Start timing; raises if already running."""
        if self.running:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop and return the total elapsed seconds."""
        if not self.running:
            raise RuntimeError("stopwatch is not running")
        self._accumulated += time.perf_counter() - self._started_at
        self._started_at = None
        return self._accumulated

    def reset(self) -> None:
        """Zero the accumulated time and stop."""
        self._accumulated = 0.0
        self._started_at = None

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class SpanTracker:
    """Nestable named timing scopes tied to an event log and registry."""

    def __init__(
        self,
        events: Optional[EventLog] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.events = events if events is not None else EventLog()
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self._stack: List[str] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def current_path(self) -> Tuple[str, ...]:
        """Snapshot of the open span names, outermost first.

        Safe to call from another thread — the sampling profiler tags
        every captured stack with it: ``tuple()`` of the list is a
        single atomic copy under the GIL, so a concurrent push/pop can
        only make the snapshot one span longer or shorter, never torn.
        """
        return tuple(self._stack)

    @contextmanager
    def span(self, name: str):
        """Time a scope; nest freely (``outer/inner`` paths in events)."""
        if "/" in name:
            raise ValueError("span names must not contain '/'")
        path = "/".join(self._stack + [name])
        depth = len(self._stack)
        self._stack.append(name)
        self.events.emit("span_begin", name=name, path=path, depth=depth)
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self._stack.pop()
            self.events.emit(
                "span_end",
                name=name,
                path=path,
                depth=depth,
                seconds=seconds,
            )
            self.metrics.histogram(f"span_seconds/{path}").observe(seconds)


def named_modules(module, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield ``(dotted_name, module)`` over a ``repro.nn`` module tree.

    Duck-typed on the ``_modules`` registry so the telemetry layer stays
    import-independent of ``repro.nn``; the root is named ``"(root)"``.
    """
    yield (prefix if prefix else "(root)"), module
    for name, child in getattr(module, "_modules", {}).items():
        child_prefix = f"{prefix}.{name}" if prefix else name
        yield from named_modules(child, child_prefix)


class ModuleProfiler:
    """Per-layer forward/backward timing hooks for a ``repro.nn`` model.

    ``attach`` shadows each submodule's ``forward``/``backward`` with a
    timing wrapper (an instance attribute, so the class stays untouched);
    ``detach`` removes the shims.  Usable as a context manager::

        registry = MetricsRegistry()
        with ModuleProfiler(registry).profile(model):
            model(images)
        registry.histogram("forward_seconds/(root)").summary()
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self._wrapped: List[tuple] = []

    @property
    def attached(self) -> bool:
        return bool(self._wrapped)

    def attach(self, model) -> "ModuleProfiler":
        """Install timing shims on every module in the tree."""
        if self._wrapped:
            raise RuntimeError("profiler already attached")
        for name, module in named_modules(model):
            self._wrap(module, name, "forward")
            self._wrap(module, name, "backward")
        return self

    def _wrap(self, module, name: str, method: str) -> None:
        original = getattr(module, method)
        histogram = self.metrics.histogram(f"{method}_seconds/{name}")

        def timed(*args, __original=original, __hist=histogram, **kwargs):
            started = time.perf_counter()
            try:
                return __original(*args, **kwargs)
            finally:
                __hist.observe(time.perf_counter() - started)

        object.__setattr__(module, method, timed)
        self._wrapped.append((module, method))

    def detach(self) -> None:
        """Remove every shim, restoring the plain class methods."""
        for module, method in self._wrapped:
            try:
                object.__delattr__(module, method)
            except AttributeError:  # pragma: no cover - already gone
                pass
        self._wrapped = []

    @contextmanager
    def profile(self, model):
        """Attach for the duration of a ``with`` block, then detach."""
        self.attach(model)
        try:
            yield self
        finally:
            self.detach()
