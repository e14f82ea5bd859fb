"""Tests for repro.telemetry.monitor: snapshots, lifecycle, worker merge."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.evaluate import evaluate_defect_accuracy
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import MLP
from repro.telemetry import MemorySink, ResourceMonitor, sample_resources


@pytest.fixture(autouse=True)
def _no_leaked_run():
    yield
    telemetry.end_run()


# -- sample_resources --------------------------------------------------------


def test_sample_has_stable_schema():
    sample = sample_resources()
    assert set(sample) == {
        "rss_bytes",
        "max_rss_bytes",
        "cpu_seconds",
        "minor_faults",
        "num_fds",
        "tracemalloc_current",
        "tracemalloc_peak",
    }
    # On Linux /proc is available; RSS and fd counts should be live.
    assert sample["rss_bytes"] is None or sample["rss_bytes"] > 0
    assert sample["cpu_seconds"] >= 0
    assert sample["minor_faults"] is None or sample["minor_faults"] > 0


def test_minor_faults_count_pages_first_touched():
    """``minor_faults`` is the cumulative ``ru_minflt``: writing a fresh
    mapping raises it."""
    before = sample_resources()["minor_faults"]
    if before is None:
        pytest.skip("getrusage is unavailable")
    # 64 MiB lies above the 32 MiB mmap threshold: a fresh mapping of its
    # own, so its pages are faulted in by this write.
    block = np.ones(64 * 1024 * 1024, dtype=np.uint8)
    after = sample_resources()["minor_faults"]
    assert block[-1] == 1
    assert after > before


def test_sample_reports_tracemalloc_when_tracing():
    import tracemalloc

    assert sample_resources()["tracemalloc_current"] is None
    tracemalloc.start()
    try:
        blob = list(range(10_000))  # noqa: F841  (must stay referenced)
        sample = sample_resources()
        assert sample["tracemalloc_current"] > 0
        assert sample["tracemalloc_peak"] >= sample["tracemalloc_current"]
    finally:
        tracemalloc.stop()


# -- lifecycle ---------------------------------------------------------------


def test_monitor_samples_on_start_and_stop():
    sink = MemorySink()
    with telemetry.session(sink=sink) as run:
        monitor = ResourceMonitor(run=run, interval=60.0)
        monitor.start()
        assert monitor.running
        monitor.stop()
        assert not monitor.running
        snapshot = run.metrics.snapshot()
    samples = [e for e in sink.events if e["kind"] == "resource_sample"]
    # One synchronous sample at start, one at stop; the 60 s interval
    # guarantees the thread never fired in between.
    assert len(samples) == 2
    assert snapshot["counters"]["resource/samples_total"] == 2
    assert snapshot["gauges"]["resource/cpu_seconds"] >= 0
    assert snapshot["gauges"]["resource/minor_faults"] == samples[-1][
        "minor_faults"
    ]
    assert snapshot["histograms"]["resource/rss_bytes"]["count"] == 2


def test_start_and_stop_are_idempotent():
    sink = MemorySink()
    with telemetry.session(sink=sink) as run:
        monitor = ResourceMonitor(run=run, interval=60.0)
        assert monitor.start() is monitor.start()
        monitor.stop()
        monitor.stop()
    samples = [e for e in sink.events if e["kind"] == "resource_sample"]
    assert len(samples) == 2


def test_monitor_is_noop_on_disabled_run():
    monitor = ResourceMonitor(run=telemetry.NULL_RUN, interval=60.0)
    monitor.start()
    assert not monitor.running
    monitor.stop()  # must not raise


def test_monitor_context_manager():
    sink = MemorySink()
    with telemetry.session(sink=sink) as run:
        with ResourceMonitor(run=run, interval=60.0) as monitor:
            assert monitor.running
        assert not monitor.running
    assert sum(e["kind"] == "resource_sample" for e in sink.events) == 2


def test_monitor_rejects_bad_interval():
    with pytest.raises(ValueError):
        ResourceMonitor(telemetry.NULL_RUN, interval=0)


# -- opt-in via session(resources=True) --------------------------------------


def test_session_resources_flag_attaches_monitor():
    sink = MemorySink()
    with telemetry.session(sink=sink, resources=True) as run:
        assert run.monitoring
        assert run.monitor is not None and run.monitor.running
    samples = [e for e in sink.events if e["kind"] == "resource_sample"]
    assert len(samples) >= 2  # start + stop at minimum


def test_session_without_flag_has_no_monitor():
    with telemetry.session(sink=MemorySink()) as run:
        assert not run.monitoring
        assert run.monitor is None


# -- worker samples ride the merge path --------------------------------------


def test_pool_run_merges_worker_samples():
    model = MLP(48, [16], 4, rng=np.random.default_rng(7))
    _, test = make_synthetic_pair(
        num_classes=4, image_size=4, train_size=8, test_size=24,
        seed=0, bandwidth=1, channels=3,
    )
    loader = DataLoader(test, 24, shuffle=False)
    sink = MemorySink()
    with telemetry.session(sink=sink, resources=True) as run:
        evaluate_defect_accuracy(
            model, loader, 0.05, num_runs=4, seed=11, workers=2
        )
    samples = [e for e in sink.events if e["kind"] == "resource_sample"]
    worker_samples = [e for e in samples if e.get("worker_pid")]
    # Every worker chunk runs its own monitor: begin/end samples per
    # chunk at minimum, merged back stamped with the producing pid.
    assert worker_samples
    # Worker sample counters merged into the parent registry; the final
    # snapshot (taken at close, after the parent monitor's stop sample)
    # accounts for every sample event in the stream.
    snapshot = run.metrics.snapshot()
    assert snapshot["counters"]["resource/samples_total"] == len(samples)
