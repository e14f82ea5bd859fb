"""Tests for the `repro.parallel` executor: ordering, fallback, retry.

Task functions live at module level because pool workers import them by
qualified name.  Worker-count/chunk-size determinism of the *numeric*
pipeline is covered in test_parallel_determinism.py; here the executor's
own mechanics are exercised with cheap synthetic tasks.  Chunk sizes and
the retry budget are shaped by patching ``config.default_chunk_size`` and
``executor.RETRIES``; ``ParallelMap`` itself takes only ``workers``.
"""

import os
import pickle
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.models import MLP
from repro.parallel import config, executor
from repro.parallel import (
    Broadcast,
    ModelBroadcast,
    ParallelExecutionError,
    ParallelMap,
    WORKERS_ENV,
    default_chunk_size,
    resolve_workers,
)
from repro.telemetry import MemorySink


# -- module-level task functions (workers import these by name) --------------


def _double(task, context):
    return task * 2 + context.get("offset", 0)


def _crash(task, context):
    raise ValueError(f"task {task} always fails")


def _crash_odd(task, context):
    if task % 2 == 1:
        raise ValueError(f"odd task {task}")
    return task


def _flaky(task, context):
    """Fails once per task (tracked by a flag file), then succeeds."""
    flag = os.path.join(context["dir"], f"seen-{task}")
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        raise RuntimeError(f"first attempt at task {task}")
    return task * 10


def _die(task, context):
    os._exit(3)


def _die_once(task, context):
    """Kills its worker on the first attempt at a task, then succeeds."""
    flag = os.path.join(context["dir"], f"died-{task}")
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(3)
    return task * 10


@pytest.fixture()
def chunk_size(monkeypatch):
    """Fix the executor's chunk size: ``chunk_size(n)``."""

    def fix(size):
        monkeypatch.setattr(
            config, "default_chunk_size", lambda num_tasks, workers: size
        )

    return fix


@pytest.fixture()
def retries(monkeypatch):
    """Set the executor's retry budget: ``retries(n)``."""

    def fix(count):
        monkeypatch.setattr(executor, "RETRIES", count)

    return fix


# -- worker-count and chunking policy ----------------------------------------


def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "7")
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 0


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 0
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert resolve_workers() == 4
    monkeypatch.setenv(WORKERS_ENV, "auto")
    assert resolve_workers() == (os.cpu_count() or 1)


def test_resolve_workers_garbage_env_falls_back(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "many")
    assert resolve_workers() == 0
    monkeypatch.setenv(WORKERS_ENV, "-2")
    assert resolve_workers() == 0


def test_resolve_workers_negative_argument_raises():
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_default_chunk_size_targets_four_chunks_per_worker():
    assert default_chunk_size(100, 2) == 13
    assert default_chunk_size(3, 8) == 1
    assert default_chunk_size(0, 4) == 1


def test_parallel_map_rejects_bad_knobs():
    with pytest.raises(ValueError):
        ParallelMap(-1)
    # The worker count is the executor's only setting.
    with pytest.raises(TypeError):
        ParallelMap(2, chunk_size=3)


# -- mapping semantics --------------------------------------------------------


def test_serial_map_preserves_order():
    result = ParallelMap(0).map(_double, [3, 1, 2])
    assert result == [6, 2, 4]


def test_empty_tasks_return_empty_list():
    assert ParallelMap(2).map(_double, []) == []


def test_pool_matches_serial_and_preserves_order():
    tasks = list(range(11))
    serial = ParallelMap(0).map(_double, tasks)
    pooled = ParallelMap(2).map(_double, tasks)
    assert pooled == serial == [t * 2 for t in tasks]


@pytest.mark.parametrize("size", [1, 3, 7, 100])
def test_chunk_size_does_not_change_results(chunk_size, size):
    chunk_size(size)
    tasks = list(range(9))
    sink = MemorySink()
    with telemetry.session(sink=sink):
        result = ParallelMap(2).map(_double, tasks)
    assert result == [t * 2 for t in tasks]
    (start,) = [e for e in sink.events if e["kind"] == "parallel_map_start"]
    assert start["chunk_size"] == size


def test_broadcast_context_reaches_workers():
    tasks = [1, 2, 3]
    pooled = ParallelMap(2).map(_double, tasks, Broadcast(offset=100))
    serial = ParallelMap(0).map(_double, tasks, Broadcast(offset=100))
    assert pooled == serial == [102, 104, 106]


# -- graceful degradation -----------------------------------------------------


def test_unimportable_pool_machinery_falls_back_to_serial(monkeypatch):
    # The executor imports the pool machinery only when it builds a pool,
    # so a platform that cannot import it still runs the map in process.
    monkeypatch.setitem(sys.modules, "concurrent.futures", None)
    sink = MemorySink()
    with telemetry.session(sink=sink):
        assert ParallelMap(2).map(_double, [1, 2]) == [2, 4]
    reasons = [
        e["reason"] for e in sink.events if e["kind"] == "parallel_fallback"
    ]
    assert len(reasons) == 1 and "pool creation failed" in reasons[0]


# -- retry / failure reporting ------------------------------------------------


def test_crashing_task_raises_after_retries(chunk_size, retries):
    chunk_size(1)
    retries(1)
    with pytest.raises(ParallelExecutionError) as excinfo:
        ParallelMap(2).map(_crash_odd, [0, 1, 2, 3])
    error = excinfo.value
    assert sorted(f.index for f in error.failures) == [1, 3]
    assert error.completed == 2
    assert all(f.attempts == 2 for f in error.failures)
    assert "ValueError" in error.failures[0].reason


def test_flaky_tasks_recover_on_retry(tmp_path, chunk_size):
    chunk_size(1)
    result = ParallelMap(2).map(_flaky, [1, 2, 3], Broadcast(dir=str(tmp_path)))
    assert result == [10, 20, 30]


def test_all_failures_never_return_partial_results(chunk_size, retries):
    chunk_size(2)
    retries(0)
    with pytest.raises(ParallelExecutionError) as excinfo:
        ParallelMap(2).map(_crash, [1, 2, 3])
    assert excinfo.value.completed == 0
    assert len(excinfo.value.failures) == 3


def test_dead_worker_is_replaced_and_its_chunk_rerun(tmp_path):
    # Each task kills its worker once.  With two tasks a chunk is charged
    # at most twice (its own death, a co-running chunk's), within RETRIES.
    sink = MemorySink()
    with telemetry.session(sink=sink):
        result = ParallelMap(2).map(
            _die_once, [1, 2], Broadcast(dir=str(tmp_path))
        )
    assert result == [10, 20]
    reasons = [e["reason"] for e in sink.events if e["kind"] == "parallel_retry"]
    assert reasons and set(reasons) == {"worker process died"}


def test_worker_that_always_dies_exhausts_retries(retries):
    retries(1)
    with pytest.raises(ParallelExecutionError) as excinfo:
        ParallelMap(2).map(_die, [1, 2])
    error = excinfo.value
    assert error.completed == 0
    assert sorted(f.index for f in error.failures) == [0, 1]
    assert all(f.attempts == 2 for f in error.failures)
    assert all(f.reason == "worker process died" for f in error.failures)


# -- broadcast wire format ----------------------------------------------------


def test_model_broadcast_parent_side_is_the_live_model():
    model = MLP(8, [4], 3, rng=np.random.default_rng(0))
    assert ModelBroadcast(model).materialize() is model


def test_model_broadcast_pickle_roundtrip():
    model = MLP(8, [4], 3, batch_norm=True, rng=np.random.default_rng(0))
    rebuilt = pickle.loads(pickle.dumps(ModelBroadcast(model))).materialize()
    assert rebuilt is not model
    original_state = model.state_dict()
    rebuilt_state = rebuilt.state_dict()
    assert set(rebuilt_state) == set(original_state)
    for name, value in original_state.items():
        np.testing.assert_array_equal(rebuilt_state[name], value)
    # The rebuilt model is usable, not just state-identical.
    x = np.random.default_rng(1).normal(size=(2, 8))
    np.testing.assert_allclose(rebuilt(x), model(x))


def test_broadcast_bundle_pickles_once_per_worker():
    bundle = Broadcast(offset=5, tag="x")
    clone = pickle.loads(pickle.dumps(bundle))
    assert clone.materialize() == {"offset": 5, "tag": "x"}
