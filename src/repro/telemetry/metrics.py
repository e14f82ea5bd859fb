"""Process-local metrics: counters, gauges and histograms in a registry.

The registry is deliberately tiny — no label cardinality, no exporters —
because its job is to answer, cheaply and in-process, questions like "how
many fault draws did this run make?" and "what is the p95 per-epoch wall
time?".  Metric names are slash-scoped strings (``faults/sa1_total``,
``train/epoch_seconds``); the canonical names used by the instrumented
pipeline are listed in ``docs/OBSERVABILITY.md``.

A registry constructed with ``enabled=False`` hands out shared null
instruments whose methods do nothing, so instrumentation call-sites never
need their own ``if telemetry:`` guards around metric updates.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Union

import numpy as np

from ..seeding import named_stream

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_RESERVOIR_SIZE",
]

#: Observations kept verbatim per histogram before reservoir sampling
#: kicks in.  Exact aggregates (count/sum/mean/min/max) are maintained
#: regardless; only the percentile/std digest becomes a sample estimate
#: past this threshold.
DEFAULT_RESERVOIR_SIZE = 4096


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add a non-negative whole-number ``amount``."""
        # Coerce index-like amounts (numpy ints) and integral floats so
        # `value` stays an exact int; anything fractional is a bug at the
        # call-site, not something to accumulate silently.
        if isinstance(amount, float):
            if not amount.is_integer():
                raise TypeError(
                    f"counter {self.name!r} increments must be whole "
                    f"numbers, got {amount!r}"
                )
            amount = int(amount)
        else:
            try:
                amount = operator.index(amount)
            except TypeError:
                raise TypeError(
                    f"counter {self.name!r} increments must be integers, "
                    f"got {type(amount).__name__}"
                ) from None
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """Last-written value (e.g. the most recent epoch loss)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record ``value`` as the current reading."""
        self.value = float(value)


class Histogram:
    """Collects observations; summarised by count/sum/percentiles.

    ``count``, ``total``, ``mean``, ``min`` and ``max`` are always
    exact.  The first :data:`DEFAULT_RESERVOIR_SIZE` observations are
    also kept verbatim in ``values``; beyond that the histogram switches
    to a fixed-capacity uniform reservoir (Vitter's algorithm R) so
    memory stays bounded for arbitrarily long runs, and the
    percentile/std digest becomes a sample estimate.  Reservoir
    replacement randomness comes from a deterministic per-name stream
    (:func:`repro.seeding.named_stream`) that never touches the
    process-wide seed policy, so enabling telemetry cannot perturb
    experiment randomness.
    """

    __slots__ = (
        "name",
        "values",
        "max_samples",
        "_count",
        "_total",
        "_min",
        "_max",
        "_rng",
    )

    def __init__(
        self, name: str, max_samples: int = DEFAULT_RESERVOIR_SIZE
    ) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.values: List[float] = []
        self.max_samples = max_samples
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng: Optional[np.random.Generator] = None

    def observe(self, value: float) -> None:
        """Add one sample to the distribution."""
        self._ingest(float(value))

    def _ingest(self, value: float) -> None:
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._sample(value)

    def _sample(self, value: float) -> None:
        """Reservoir insertion at the current exact ``_count``."""
        if len(self.values) < self.max_samples:
            self.values.append(value)
            return
        if self._rng is None:
            self._rng = named_stream(f"histogram/{self.name}")
        slot = int(self._rng.integers(0, self._count))
        if slot < self.max_samples:
            self.values[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return float(self._total)

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self.total / self._count

    @property
    def subsampled(self) -> bool:
        """Whether the digest is a reservoir estimate (count > capacity)."""
        return self._count > len(self.values)

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100].

        Exact below the reservoir capacity, a uniform-sample estimate
        above it; interpolates linearly either way.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.values:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return float(np.percentile(self.values, q))

    def summary(self) -> dict:
        """JSON-friendly digest: count/sum/mean/std, min/p50/p95/p99/max.

        ``count``/``sum``/``mean``/``min``/``max`` are exact; ``std``
        and the percentiles come from the (possibly subsampled)
        reservoir, in which case a ``samples`` key reports its size.
        """
        if not self._count:
            return {"count": 0, "sum": 0.0}
        digest = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "std": float(np.std(self.values)),
            "min": float(self._min),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": float(self._max),
        }
        if self.subsampled:
            digest["samples"] = len(self.values)
        return digest

    def merge_dump(self, data: Union[list, dict]) -> None:
        """Fold another histogram's :meth:`MetricsRegistry.dump` entry in.

        Accepts the plain observation list (a source below its reservoir
        capacity — the exact case, and the legacy wire format) or the
        dict form carrying exact aggregates plus reservoir samples, in
        which case the exact aggregates are folded exactly and the
        samples re-enter this reservoir weighted by the combined count.
        """
        if isinstance(data, list):
            for value in data:
                self._ingest(float(value))
            return
        values = [float(v) for v in data.get("values", [])]
        count = int(data.get("count", len(values)))
        if count <= len(values):
            for value in values:
                self._ingest(value)
            return
        self._count += count
        self._total += float(data.get("sum", sum(values)))
        for key, fold in (("min", min), ("max", max)):
            other = data.get(key)
            if other is not None:
                mine = self._min if key == "min" else self._max
                folded = float(other) if mine is None else fold(mine, float(other))
                if key == "min":
                    self._min = folded
                else:
                    self._max = folded
        for value in values:
            self._sample(value)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def _ingest(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Get-or-create home for a run's instruments.

    Asking twice for the same name returns the same instrument; asking for
    an existing name with a different instrument type raises.  A disabled
    registry returns shared no-op instruments and records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _get(self, table: dict, others: tuple, name: str, factory):
        for other in others:
            if name in other:
                raise ValueError(
                    f"metric {name!r} already registered with a different type"
                )
        if name not in table:
            table[name] = factory(name)
        return table[name]

    def counter(self, name: str) -> Counter:
        """The counter ``name``, created on first use."""
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(
            self._counters, (self._gauges, self._histograms), name, Counter
        )

    def gauge(self, name: str) -> Gauge:
        """The gauge ``name``, created on first use."""
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(
            self._gauges, (self._counters, self._histograms), name, Gauge
        )

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name``, created on first use."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get(
            self._histograms, (self._counters, self._gauges), name, Histogram
        )

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every instrument's current state."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def dump(self) -> dict:
        """Lossless, mergeable dump of every instrument.

        Unlike :meth:`snapshot` (which summarises histograms), the dump
        keeps raw histogram observations so another registry can fold
        them in with :meth:`merge` — the wire format ``repro.parallel``
        workers ship their per-chunk metrics back on.  A histogram below
        its reservoir capacity dumps as a plain observation list (exact,
        and what pre-reservoir readers expect); a subsampled one dumps
        as a dict carrying its exact aggregates plus the reservoir.
        """
        histograms = {}
        for name, h in sorted(self._histograms.items()):
            if h.subsampled:
                histograms[name] = {
                    "count": h.count,
                    "sum": h.total,
                    "min": h._min,
                    "max": h._max,
                    "values": list(h.values),
                }
            else:
                histograms[name] = list(h.values)
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": histograms,
        }

    def merge(self, dump: dict) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters add, histograms fold observations (exactly when the
        source dumped a plain list, via its exact aggregates plus
        reservoir samples when it was subsampled — see
        :meth:`Histogram.merge_dump`), gauges take the dumped value
        (last merge wins — callers that care about gauge ordering should
        not set the same gauge from several workers).  A disabled
        registry ignores the merge.
        """
        if not self.enabled:
            return
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, data in dump.get("histograms", {}).items():
            self.histogram(name).merge_dump(data)

    def reset(self) -> None:
        """Drop every instrument (the next lookup re-creates them)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
