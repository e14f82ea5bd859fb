"""Tests for repro.bench.registry and the statistical runner."""

import numpy as np
import pytest

from repro.bench import (
    BenchmarkCase,
    BenchmarkRegistry,
    RunnerConfig,
    run_case,
    run_suite,
)
from repro.telemetry import MetricsRegistry


def _make_registry():
    registry = BenchmarkRegistry()

    @registry.benchmark(
        "toy/add",
        params={"fast": {"n": 10}, "full": {"n": 1000}},
        setup=lambda params, rng: {"x": np.arange(params["n"])},
        description="adds an array to itself",
    )
    def _add(state):
        return state["x"] + state["x"]

    return registry


# -- registry ---------------------------------------------------------------


def test_decorator_registers_case():
    registry = _make_registry()
    case = registry.get("toy/add")
    assert isinstance(case, BenchmarkCase)
    assert case.description == "adds an array to itself"
    assert "toy/add" in registry
    assert len(registry) == 1


def test_duplicate_name_raises():
    registry = _make_registry()
    with pytest.raises(ValueError, match="already registered"):
        registry.register(BenchmarkCase("toy/add", lambda state: None))


def test_unknown_case_raises_with_known_names():
    registry = _make_registry()
    with pytest.raises(KeyError, match="toy/add"):
        registry.get("nope")


def test_unknown_suite_rejected_at_declaration():
    with pytest.raises(ValueError, match="unknown suite"):
        BenchmarkCase("x", lambda s: None, suites=("nightly",))
    with pytest.raises(ValueError, match="unknown suite"):
        BenchmarkCase("x", lambda s: None, params={"nightly": {}})


def test_params_for_falls_back_to_fast():
    case = BenchmarkCase(
        "x", lambda s: None, params={"fast": {"n": 3}}
    )
    assert case.params_for("full") == {"n": 3}
    assert case.params_for("fast") == {"n": 3}


def test_suite_and_pattern_filtering():
    registry = _make_registry()

    @registry.benchmark("toy/fast_only", suites=("fast",))
    def _fast_only(state):
        return None

    names = [c.name for c in registry.cases(suite="full")]
    assert names == ["toy/add"]
    names = [c.name for c in registry.cases(pattern="fast_only")]
    assert names == ["toy/fast_only"]


def test_build_uses_suite_params():
    registry = _make_registry()
    case = registry.get("toy/add")
    assert len(case.build("fast")["x"]) == 10
    assert len(case.build("full")["x"]) == 1000
    with pytest.raises(ValueError, match="not in suite"):
        BenchmarkCase("x", lambda s: None, suites=("fast",)).build("full")


def test_default_setup_passes_params_and_rng():
    case = BenchmarkCase("x", lambda s: None, params={"fast": {"n": 1}})
    state = case.build("fast", rng=np.random.default_rng(7))
    assert state["params"] == {"n": 1}
    assert isinstance(state["rng"], np.random.Generator)


def test_teardown_runs_even_when_body_raises():
    torn = []

    def _boom(state):
        raise RuntimeError("boom")

    case = BenchmarkCase(
        "x", _boom, teardown=lambda state: torn.append(True)
    )
    with pytest.raises(RuntimeError):
        run_case(case, config=RunnerConfig(warmup=1, min_repeats=1, min_time=0))
    assert torn == [True]


# -- runner -----------------------------------------------------------------


def test_runner_config_validation():
    with pytest.raises(ValueError):
        RunnerConfig(warmup=-1)
    with pytest.raises(ValueError):
        RunnerConfig(min_repeats=0)
    with pytest.raises(ValueError):
        RunnerConfig(min_repeats=10, max_repeats=5)
    with pytest.raises(ValueError):
        RunnerConfig(min_time=-0.1)


def test_run_case_counts_and_stats():
    registry = _make_registry()
    calls = []
    registry.get("toy/add").func = lambda state: calls.append(1)
    config = RunnerConfig(warmup=2, min_repeats=5, max_repeats=5, min_time=0.0)
    result = run_case(registry.get("toy/add"), "fast", config)
    assert len(calls) == 7  # 2 warmup + 5 measured
    assert result.repeats == 5
    assert result.warmup == 2
    assert result.suite == "fast"
    assert result.params == {"n": 10}
    for key in ("median", "mad", "mean", "p95", "p99", "std"):
        assert key in result.stats


def test_run_case_honours_min_time():
    registry = _make_registry()
    config = RunnerConfig(
        warmup=0, min_repeats=1, max_repeats=10_000, min_time=0.02
    )
    result = run_case(registry.get("toy/add"), "fast", config)
    assert result.stats["total"] >= 0.02 or result.repeats == 10_000


def test_run_case_min_time_counts_only_kept_samples(monkeypatch):
    # A scripted clock: one straggler among steady ~1 ms samples.  Its
    # 50 ms alone reach min_time, but outlier rejection drops it, so the
    # run must go on until the kept samples reach min_time.
    durations = iter([0.0010, 0.0011, 0.0012, 0.05] + [0.0010, 0.0011] * 50)

    class ScriptedStopwatch:
        def start(self):
            return self

        def stop(self):
            return next(durations)

    monkeypatch.setattr("repro.bench.runner.Stopwatch", ScriptedStopwatch)
    registry = _make_registry()
    config = RunnerConfig(
        warmup=0, min_repeats=1, max_repeats=10_000, min_time=0.02
    )
    result = run_case(registry.get("toy/add"), "fast", config)
    assert result.rejected == 1
    assert result.stats["total"] >= 0.02 or result.repeats == 10_000


def test_run_case_observes_telemetry_histogram():
    registry = _make_registry()
    metrics = MetricsRegistry()
    config = RunnerConfig(warmup=0, min_repeats=4, max_repeats=4, min_time=0)
    run_case(registry.get("toy/add"), "fast", config, metrics=metrics)
    hist = metrics.histogram("bench_seconds/toy/add")
    assert hist.count == 4


def test_run_suite_runs_all_matching_cases():
    registry = _make_registry()

    @registry.benchmark("toy/other", suites=("fast",))
    def _other(state):
        return None

    config = RunnerConfig(warmup=0, min_repeats=1, max_repeats=1, min_time=0)
    seen = []
    results = run_suite(
        "fast", config, registry=registry, progress=seen.append
    )
    assert [r.name for r in results] == ["toy/add", "toy/other"]
    assert seen == ["toy/add", "toy/other"]
    with pytest.raises(ValueError, match="no benchmark cases"):
        run_suite("fast", config, registry=registry, pattern="zzz")
