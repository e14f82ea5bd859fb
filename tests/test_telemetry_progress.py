"""Tests for repro.telemetry.progress: heartbeat cadence and ETA."""

import pytest

from repro import telemetry
from repro.telemetry import MemorySink, ProgressTracker


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture(autouse=True)
def _no_leaked_run():
    yield
    telemetry.end_run()


def _tracker(sink, **kwargs):
    run = telemetry.start_run(sink=sink)
    return ProgressTracker(run=run, **kwargs)


def test_heartbeats_are_rate_limited():
    sink = MemorySink()
    clock = FakeClock()
    tracker = _tracker(
        sink, total=100, label="t", min_interval=1.0, clock=clock
    )
    for _ in range(10):
        tracker.update()
        clock.advance(0.2)
    beats = [e for e in sink.events if e["kind"] == "heartbeat"]
    # First update beats immediately; 10 updates over 1.8 s at >= 1 s
    # spacing allow exactly one more.
    assert len(beats) == 2
    assert tracker.heartbeats == 2


def test_heartbeat_reports_throughput_and_eta():
    sink = MemorySink()
    clock = FakeClock()
    tracker = _tracker(
        sink, total=40, label="eta", min_interval=0.0, clock=clock
    )
    clock.advance(2.0)
    tracker.update(10)
    (beat,) = [e for e in sink.events if e["kind"] == "heartbeat"]
    assert beat["completed"] == 10
    assert beat["total"] == 40
    assert beat["elapsed_seconds"] == 2.0
    assert beat["rate_per_second"] == 5.0
    assert beat["eta_seconds"] == 30 / 5.0
    assert beat["label"] == "eta"


def test_finish_emits_final_heartbeat_and_unknown_total_omits_eta():
    sink = MemorySink()
    clock = FakeClock()
    tracker = _tracker(
        sink, total=None, label="open", min_interval=100.0, clock=clock
    )
    clock.advance(1.0)
    tracker.update(3)
    clock.advance(1.0)
    tracker.finish()
    beats = [e for e in sink.events if e["kind"] == "heartbeat"]
    assert len(beats) == 2  # first update + finish, rate limit ignored
    assert beats[-1]["completed"] == 3
    assert beats[-1]["total"] is None
    assert beats[-1]["eta_seconds"] is None


def test_zero_total_never_divides_by_zero():
    sink = MemorySink()
    clock = FakeClock()
    tracker = _tracker(
        sink, total=0, label="empty", min_interval=0.0, clock=clock
    )
    clock.advance(1.0)
    tracker.update(0)  # an empty sweep still ticks
    tracker.finish()
    beats = [e for e in sink.events if e["kind"] == "heartbeat"]
    assert len(beats) == 2
    for beat in beats:
        assert beat["total"] == 0
        assert beat["percent"] is None
        assert beat["eta_seconds"] is None


def test_zero_elapsed_first_sample_omits_rate_and_eta():
    sink = MemorySink()
    clock = FakeClock()
    tracker = _tracker(
        sink, total=10, label="fast", min_interval=0.0, clock=clock
    )
    tracker.update(3)  # clock has not advanced: elapsed == 0
    (beat,) = [e for e in sink.events if e["kind"] == "heartbeat"]
    assert beat["elapsed_seconds"] == 0.0
    assert beat["rate_per_second"] is None
    assert beat["eta_seconds"] is None
    assert beat["percent"] == 30.0


def test_heartbeat_percent_field():
    sink = MemorySink()
    clock = FakeClock()
    tracker = _tracker(
        sink, total=8, label="pct", min_interval=0.0, clock=clock
    )
    clock.advance(1.0)
    tracker.update(2)
    clock.advance(1.0)
    tracker.update(6)
    beats = [e for e in sink.events if e["kind"] == "heartbeat"]
    assert [b["percent"] for b in beats] == [25.0, 100.0]
    # Unknown totals omit the percent rather than guessing.
    open_tracker = ProgressTracker(
        total=None, label="open", run=telemetry.current(),
        min_interval=0.0, clock=clock,
    )
    open_tracker.update()
    assert sink.events[-1]["percent"] is None


def test_disabled_run_emits_nothing():
    tracker = ProgressTracker(
        total=5, label="off", run=telemetry.NULL_RUN, min_interval=0.0
    )
    tracker.update(5)
    tracker.finish()
    assert tracker.heartbeats == 0


def test_validation():
    with pytest.raises(ValueError):
        ProgressTracker(total=-1, label="x", run=telemetry.NULL_RUN)
    with pytest.raises(ValueError):
        ProgressTracker(
            total=1, label="x", run=telemetry.NULL_RUN, min_interval=-1
        )
    tracker = ProgressTracker(total=1, label="x", run=telemetry.NULL_RUN)
    with pytest.raises(ValueError):
        tracker.update(-1)
