"""Tests for repro.telemetry.events: sinks, the event log, JSONL round-trip."""

import json
import os

import pytest

from repro import telemetry
from repro.telemetry import (
    EventLog,
    JsonlSink,
    MemorySink,
    NullSink,
    new_run_id,
    read_events,
)


@pytest.fixture(autouse=True)
def _no_leaked_run():
    """Guarantee no test leaves a global run active."""
    yield
    telemetry.end_run()


def test_new_run_ids_are_unique():
    assert new_run_id() != new_run_id()
    assert new_run_id().startswith("run-")


def test_event_log_stamps_bookkeeping_fields():
    sink = MemorySink()
    log = EventLog(sink, run_id="run-x", clock=lambda: 123.5)
    event = log.emit("epoch_end", epoch=3, loss=0.5)
    assert event == {
        "kind": "epoch_end",
        "run_id": "run-x",
        "seq": 0,
        "ts": 123.5,
        "epoch": 3,
        "loss": 0.5,
    }
    assert sink.events == [event]


def test_event_log_sequence_is_monotonic():
    log = EventLog(MemorySink(), run_id="r")
    seqs = [log.emit("e")["seq"] for _ in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_null_sink_default_is_disabled():
    log = EventLog()
    assert not log.enabled
    log.emit("anything", x=1)  # must be a no-op, not an error


def test_jsonl_sink_is_lazy(tmp_path):
    path = tmp_path / "sub" / "events.jsonl"
    JsonlSink(str(path))
    assert not path.exists()  # constructing writes nothing


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "events.jsonl")
    sink = JsonlSink(path)
    log = EventLog(sink, run_id="run-rt")
    log.emit("a", value=1)
    log.emit("b", value=[1.5, 2.5], nested={"k": "v"})
    sink.close()

    events = read_events(path)
    assert [e["kind"] for e in events] == ["a", "b"]
    assert events[0]["value"] == 1
    assert events[1]["nested"] == {"k": "v"}
    assert all(e["run_id"] == "run-rt" for e in events)
    # One JSON object per line, every line parseable on its own.
    with open(path) as handle:
        for line in handle:
            json.loads(line)


def test_read_events_skips_truncated_trailing_line(tmp_path):
    """A crashed run's half-written last line must not poison the log."""
    path = str(tmp_path / "events.jsonl")
    log = EventLog(JsonlSink(path), run_id="run-crash")
    log.emit("a", value=1)
    log.emit("b", value=2)
    log.close()
    with open(path, "a") as handle:
        handle.write('{"kind": "c", "run_id": "run-crash", "se')  # truncated

    events, skipped = telemetry.read_events_with_errors(path)
    assert [e["kind"] for e in events] == ["a", "b"]
    assert skipped == 1
    assert read_events(path) == events  # plain reader agrees


def test_read_events_skips_non_object_and_blank_lines(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w") as handle:
        handle.write('{"kind": "ok", "run_id": "r", "seq": 0, "ts": 1.0}\n')
        handle.write("\n")  # blank: ignored, not counted
        handle.write("[1, 2, 3]\n")  # valid JSON, wrong shape: skipped
        handle.write("not json at all\n")  # corrupt: skipped
    events, skipped = telemetry.read_events_with_errors(path)
    assert [e["kind"] for e in events] == ["ok"]
    assert skipped == 2


def test_corrupt_line_warning_names_file_and_lines(tmp_path, caplog):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w") as handle:
        handle.write('{"kind": "ok", "run_id": "r", "seq": 0, "ts": 1.0}\n')
        handle.write("garbage\n")  # line 2
        handle.write('{"kind": "ok2", "run_id": "r", "seq": 1, "ts": 2.0}\n')
        handle.write("{truncated\n")  # line 4
    with caplog.at_level("WARNING", logger="repro.telemetry"):
        _, skipped = telemetry.read_events_with_errors(path)
    assert skipped == 2
    (record,) = caplog.records
    message = record.getMessage()
    # The operator can jump straight to the damage: path + line numbers.
    assert path in message
    assert "line 2, 4" in message


def test_disabled_run_writes_no_files(tmp_path):
    """The null run (telemetry off) must never touch the filesystem."""
    run = telemetry.current()
    assert run is telemetry.NULL_RUN
    assert not run.enabled
    run.emit("epoch_end", epoch=0)
    with run.span("anything"):
        pass
    run.metrics.counter("c").inc()
    assert os.listdir(tmp_path) == []


def test_session_writes_run_directory(tmp_path):
    with telemetry.session(str(tmp_path), config={"scale": "ci"}) as run:
        assert telemetry.current() is run
        run.emit("log", level="INFO", message="hello")
    assert telemetry.current() is telemetry.NULL_RUN

    events = read_events(os.path.join(run.directory, "events.jsonl"))
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_end"
    assert "log" in kinds
    assert events[0]["config"] == {"scale": "ci"}
    # close() persisted the metrics snapshot and run provenance.
    assert os.path.isfile(os.path.join(run.directory, "metrics.json"))
    with open(os.path.join(run.directory, "run.json")) as handle:
        meta = json.load(handle)
    assert meta["run_id"] == run.run_id


def test_nested_start_run_rejected(tmp_path):
    telemetry.start_run(sink=MemorySink())
    with pytest.raises(RuntimeError):
        telemetry.start_run(sink=MemorySink())
    telemetry.end_run()


def test_memory_sink_session_collects_events():
    sink = MemorySink()
    with telemetry.session(sink=sink):
        telemetry.current().emit("heartbeat")
    kinds = [e["kind"] for e in sink.events]
    assert kinds == ["run_start", "heartbeat", "run_end"]


def test_only_a_run_directory_reads_git_provenance(tmp_path, monkeypatch):
    """``run.json`` is the one reader of the git sha: an in-memory session
    (each captured pool chunk runs one) starts no ``git`` subprocess."""
    from repro.bench import provenance

    calls = []
    monkeypatch.setattr(provenance, "git_sha", lambda: calls.append(1) or "f" * 40)
    sink = MemorySink()
    with telemetry.session(sink=sink):
        pass
    assert calls == []
    assert sink.events[-1]["duration_seconds"] >= 0.0
    with telemetry.session(str(tmp_path)) as run:
        pass
    assert calls == [1]
    with open(os.path.join(run.directory, "run.json")) as handle:
        assert json.load(handle)["provenance"]["git_sha"] == "f" * 40


@pytest.mark.parametrize(
    "sink", [MemorySink(), NullSink()], ids=["enabled", "disabled"]
)
def test_emit_checks_events_against_the_registry(sink):
    run = telemetry.TelemetryRun(sink=sink)
    assert run.enabled is isinstance(sink, MemorySink)
    with pytest.raises(ValueError, match="'no_such_kind'"):
        run.emit("no_such_kind")
    with pytest.raises(ValueError, match="'acuracy'"):
        run.emit("defect_draw", draw=0, acuracy=0.5)
    # Open kinds declare only a lower bound of their fields.
    run.emit("model_cost", model="MLP", macs=200)
    run.emit("defect_draw", draw=0, accuracy=0.5, worker_pid=1)


def test_telemetry_log_handler_forwards_records():
    import logging

    sink = MemorySink()
    logger = logging.getLogger("repro.test_telemetry")
    handler = telemetry.TelemetryLogHandler()
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    # The CLI may have hung its own TelemetryLogHandler on the parent
    # "repro" logger in an earlier test; don't let records reach it twice.
    logger.propagate = False
    try:
        with telemetry.session(sink=sink):
            logger.info("hello %s", "world")
        logger.info("after the session")  # must not raise, must not record
    finally:
        logger.removeHandler(handler)
        logger.propagate = True
    logs = [e for e in sink.events if e["kind"] == "log"]
    assert len(logs) == 1
    assert logs[0]["message"] == "hello world"
    assert logs[0]["level"] == "INFO"
