"""The statistical benchmark runner.

Each case runs untimed warm-up repeats first (JIT-free numpy still pays
one-off costs: lazy allocations, cache warming), then measured repeats
until *both* a minimum repeat count and a minimum total measured time are
reached, so fast bodies get enough samples for stable percentiles while
slow bodies stop after a bounded number of repeats.  Per-repeat timings
come from :class:`repro.telemetry.Stopwatch` and are mirrored into a
``bench_seconds/<case>`` histogram on a
:class:`~repro.telemetry.MetricsRegistry`, so a benchmark run is
introspectable with the same tools as any other instrumented run.

Statistics are robust (median/MAD-centred) with one-sided outlier
rejection; see :mod:`repro.bench.stats`.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional

import numpy as np

from ..telemetry import MetricsRegistry, Stopwatch
from .registry import BenchmarkCase, BenchmarkRegistry, default_registry
from .stats import describe, reject_outliers

__all__ = ["RunnerConfig", "CaseResult", "run_case", "run_suite"]

logger = logging.getLogger("repro.bench")


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs of the measurement loop.

    Attributes
    ----------
    warmup:
        Untimed repeats before measurement starts.
    min_repeats:
        Minimum measured repeats per case.
    max_repeats:
        Hard ceiling on measured repeats (bounds total runtime).
    min_time:
        Keep repeating (up to ``max_repeats``) until the samples kept
        after outlier rejection add up to this many seconds — the
        ``total`` the case's stats report.
    outlier_threshold:
        One-sided MAD fence for rejecting slow stragglers; see
        :func:`repro.bench.stats.reject_outliers`.
    seed:
        Base seed for each case's setup generator.
    """

    warmup: int = 3
    min_repeats: int = 10
    max_repeats: int = 1000
    min_time: float = 0.2
    outlier_threshold: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.min_repeats < 1:
            raise ValueError("min_repeats must be >= 1")
        if self.max_repeats < self.min_repeats:
            raise ValueError("max_repeats must be >= min_repeats")
        if self.min_time < 0:
            raise ValueError("min_time must be >= 0")

    def to_dict(self) -> dict:
        """JSON-ready form of the configuration."""
        return asdict(self)


@dataclass
class CaseResult:
    """One case's measured outcome.

    ``profile`` is the optional sampled-stack digest captured when the
    runner profiled the measured repeats: ``{"interval", "samples",
    "repeats", "functions": {label: {"self", "total"}}}`` — the input of
    ``python -m repro.bench compare --attribute``.
    """

    name: str
    suite: str
    params: dict
    repeats: int
    rejected: int
    warmup: int
    stats: dict
    profile: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON-ready form of the result."""
        doc = {
            "suite": self.suite,
            "params": self.params,
            "repeats": self.repeats,
            "rejected": self.rejected,
            "warmup": self.warmup,
            "stats": self.stats,
        }
        if self.profile is not None:
            doc["profile"] = self.profile
        return doc


def run_case(
    case: BenchmarkCase,
    suite: str = "fast",
    config: Optional[RunnerConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    profile: bool = False,
) -> CaseResult:
    """Measure one case and return its robust timing digest.

    ``profile`` additionally runs a
    :class:`~repro.telemetry.profiling.StackSampler` over the *measured*
    repeats (warm-up and setup stay unsampled) and attaches the
    per-function self/total sample digest to the result — the raw
    material for ``compare --attribute``.
    """
    config = config if config is not None else RunnerConfig()
    metrics = metrics if metrics is not None else MetricsRegistry()
    histogram = metrics.histogram(f"bench_seconds/{case.name}")
    params = case.params_for(suite)
    state = case.build(suite, rng=np.random.default_rng(config.seed))
    sampler = None
    try:
        for _ in range(config.warmup):
            case.func(state)
        if profile:
            from ..telemetry.profiling import StackSampler

            sampler = StackSampler().start()
        samples: List[float] = []
        measured = 0.0
        check_at = config.min_time
        while len(samples) < config.max_repeats:
            watch = Stopwatch().start()
            case.func(state)
            seconds = watch.stop()
            samples.append(seconds)
            histogram.observe(seconds)
            measured += seconds
            if len(samples) < config.min_repeats or measured < check_at:
                continue
            # Stop on the total that stats report, of the kept samples;
            # re-check once the raw total could cover the shortfall.
            kept, _ = reject_outliers(samples, config.outlier_threshold)
            shortfall = config.min_time - sum(kept)
            if shortfall <= 0:
                break
            check_at = measured + shortfall
    finally:
        if sampler is not None:
            aggregate = sampler.stop()
        case.cleanup(state)
    profile_digest = None
    if sampler is not None:
        from ..telemetry.profiling import function_totals

        profile_digest = {
            "interval": sampler.interval,
            "samples": aggregate.samples,
            "repeats": len(samples),
            "functions": function_totals(aggregate),
        }
    kept, rejected = reject_outliers(samples, config.outlier_threshold)
    result = CaseResult(
        name=case.name,
        suite=suite,
        params=params,
        repeats=len(samples),
        rejected=len(rejected),
        warmup=config.warmup,
        stats=describe(kept),
        profile=profile_digest,
    )
    logger.debug(
        "bench %s: %d repeats (%d rejected), median %.6fs",
        case.name,
        result.repeats,
        result.rejected,
        result.stats["median"],
    )
    return result


def run_suite(
    suite: str = "fast",
    config: Optional[RunnerConfig] = None,
    registry: Optional[BenchmarkRegistry] = None,
    pattern: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
    profile: bool = False,
) -> List[CaseResult]:
    """Run every registered case in ``suite`` (optionally filtered).

    ``progress`` (when given) is called with each case name before it
    runs — the CLI uses it for live output.
    """
    registry = registry if registry is not None else default_registry()
    cases = list(registry.cases(suite=suite, pattern=pattern))
    if not cases:
        raise ValueError(
            f"no benchmark cases match suite {suite!r}"
            + (f" and pattern {pattern!r}" if pattern else "")
        )
    results = []
    for case in cases:
        if progress is not None:
            progress(case.name)
        results.append(
            run_case(
                case,
                suite=suite,
                config=config,
                metrics=metrics,
                profile=profile,
            )
        )
    return results
