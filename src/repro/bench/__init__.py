"""Statistical benchmark harness with ``BENCH_*.json`` regression tracking.

The paper's pipeline is expensive by construction — defect accuracy means
100 random fault draws, and stochastic fault-tolerant training re-injects
faults on every forward pass — so "make a hot path measurably faster" is
only actionable once those paths can be measured reproducibly.  This
package is that measurement layer:

* :mod:`~repro.bench.registry` — :class:`BenchmarkCase` + the
  :func:`benchmark` decorator for declaring cases with setup/teardown
  and per-suite input-size metadata (``fast`` / ``full`` tiers);
* :mod:`~repro.bench.stats`    — robust timing statistics (median, MAD,
  percentiles, MAD-based outlier rejection);
* :mod:`~repro.bench.runner`   — the statistical runner (configurable
  warmup, min repeats, min total time) built on
  :class:`repro.telemetry.Stopwatch` / :class:`~repro.telemetry.MetricsRegistry`;
* :mod:`~repro.bench.provenance` — environment capture (git SHA,
  python/numpy versions, platform, CPU count);
* :mod:`~repro.bench.schema`   — the versioned ``BENCH_*.json`` document;
* :mod:`~repro.bench.compare`  — per-case diff of two BENCH files with a
  noise-aware regression threshold;
* :mod:`~repro.bench.report`   — text tables for the CLI (also reused by
  ``python -m repro.experiments summary --top N``);
* :mod:`~repro.bench.suites`   — the default suite over the repo's real
  hot paths (conv forward/backward, fault sampling/injection, crossbar
  mapping/MVM, bit-serial MVM, a defect-evaluation draw, one training
  epoch).

Typical use::

    PYTHONPATH=src python -m repro.bench run --suite fast -o BENCH_0.json
    PYTHONPATH=src python -m repro.bench compare BENCH_0.json BENCH_1.json

``compare`` exits non-zero when any case regresses beyond the noise
threshold, so CI can gate on it.  The JSON schema is documented in
``docs/OBSERVABILITY.md``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compare": ("CaseDelta", "ComparisonResult", "compare_benches"),
        "provenance": ("collect_provenance",),
        "registry": (
            "BenchmarkCase", "BenchmarkRegistry", "benchmark",
            "default_registry",
        ),
        "report": (
            "format_table", "format_seconds", "render_bench",
            "render_comparison",
        ),
        "runner": ("RunnerConfig", "CaseResult", "run_case", "run_suite"),
        "schema": (
            "SCHEMA_NAME", "SCHEMA_VERSION", "SchemaError", "load_bench",
            "validate_bench", "write_bench",
        ),
        "stats": ("describe", "mad", "reject_outliers"),
    },
)
