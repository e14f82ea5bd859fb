"""`ParallelMap`: deterministic, fault-tolerant process-pool mapping.

The executor maps a module-level function over a list of picklable tasks
and returns the results in task order.  Three properties the Monte Carlo
pipeline relies on:

* **Determinism** — the executor never influences results.  Tasks carry
  their own seed streams (see :func:`repro.seeding.draw_streams`), so
  the value computed for task ``i`` is a pure function of the task, the
  broadcast context, and nothing else; worker count, chunk size, and
  scheduling order only affect wall-clock time.
* **Fault tolerance** — a task that raises is retried up to
  :data:`RETRIES` times; a worker that dies (pool breaks) is replaced by
  tearing the pool down and rebuilding it, and the affected chunks are
  resubmitted.  When a chunk exhausts its retries the whole map raises
  :class:`ParallelExecutionError` — a partial Monte Carlo mean is never
  silently returned.
* **Graceful degradation** — workers 0/1, or any failure to *create* a
  pool (missing OS support), falls back to in-process serial execution,
  which is the same code path the task function takes inside a worker.

Pools are per-:meth:`~ParallelMap.map`-call and use the platform's
start method; chunks come from :func:`~repro.parallel.default_chunk_size`.
The broadcast bundle is pickled once per worker via the pool
initialiser, not once per task.  The pool machinery
(``concurrent.futures``, ``multiprocessing``) is imported by the methods
that build and drive a pool, so a serial map never loads it; a pooled
map loads it in the parent, before the fork.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from .. import telemetry
from ..telemetry.progress import ProgressTracker
from . import config
from .broadcast import Broadcast
from .worker import initialize_worker, run_chunk

if TYPE_CHECKING:
    import concurrent.futures as cf

__all__ = ["ParallelMap", "ParallelExecutionError", "TaskFailure"]

logger = logging.getLogger("repro.parallel")

#: Event-dict bookkeeping fields stripped before re-emitting a worker
#: event into the parent run (the parent stamps its own).
_BOOKKEEPING_FIELDS = ("kind", "run_id", "seq", "ts")

#: Worker session-lifecycle events that are noise in the parent stream.
_SKIPPED_WORKER_EVENTS = {"run_start", "run_end"}

#: Extra attempts per chunk after its first failure.
RETRIES = 2

#: Poll interval of the completion loop, seconds; each tick notes which
#: chunks a worker has picked up (see ``ParallelMap._on_pool_break``).
_WAIT_TICK = 0.1


@dataclass
class TaskFailure:
    """One task the executor gave up on."""

    index: int
    attempts: int
    reason: str


class ParallelExecutionError(RuntimeError):
    """Raised when tasks exhausted their retries.

    Carries every failed task and the count of tasks that *did* finish,
    so callers can report precisely what is missing — the executor never
    substitutes partial results for the full map.
    """

    def __init__(self, failures: List[TaskFailure], completed: int) -> None:
        self.failures = failures
        self.completed = completed
        indices = [f.index for f in failures]
        super().__init__(
            f"{len(failures)} task(s) failed after retries "
            f"(indices {indices}, {completed} completed); "
            f"first failure: {failures[0].reason}"
        )


@dataclass
class _Chunk:
    """A contiguous slice of tasks scheduled as one unit."""

    indices: List[int]
    tasks: List[Any]
    attempts: int = 0
    future: Optional[cf.Future] = None
    running: bool = False
    last_reason: str = ""
    done: bool = False


class ParallelMap:
    """Map a function over tasks with a deterministic process pool.

    ``workers`` is the number of worker processes; ``None`` defers to
    :data:`~repro.parallel.WORKERS_ENV`, and 0/1 run serial in process.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = config.resolve_workers(workers)

    # -- serial path --------------------------------------------------------
    def _run_serial(
        self,
        fn: Callable[[Any, Dict[str, Any]], Any],
        tasks: Sequence[Any],
        broadcast: Optional[Broadcast],
        label: str,
    ) -> List[Any]:
        context = broadcast.materialize() if broadcast is not None else {}
        tracker = ProgressTracker(total=len(tasks), label=label)
        results = []
        for task in tasks:
            results.append(fn(task, context))
            tracker.update()
        tracker.finish()
        return results

    # -- pool plumbing ------------------------------------------------------
    def _make_pool(
        self,
        broadcast,
        capture: bool,
        monitor: bool = False,
        profile: bool = False,
    ) -> cf.ProcessPoolExecutor:
        import concurrent.futures as cf

        return cf.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=initialize_worker,
            initargs=(broadcast, capture, monitor, profile),
        )

    @staticmethod
    def _teardown_pool(pool: cf.ProcessPoolExecutor) -> None:
        """Stop a pool that may contain dead or still-busy workers.

        ``shutdown`` alone would join a busy worker until its chunk ends,
        so live processes are terminated first (``_processes`` is private
        but stable across supported CPython versions; failure to reach
        it only means a slower shutdown, not a wrong result).
        """
        try:
            processes = list((pool._processes or {}).values())
        except AttributeError:  # pragma: no cover - interpreter-dependent
            processes = []
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError) as exc:  # pragma: no cover
                # Racing a process that already exited; nothing to stop.
                logger.debug("terminate of worker %s failed: %s", process, exc)
        pool.shutdown(wait=False, cancel_futures=True)

    # -- result/telemetry merge --------------------------------------------
    def _absorb_chunk(
        self,
        chunk: _Chunk,
        payload: Dict[str, Any],
        results: Dict[int, Any],
        tracker: ProgressTracker,
    ) -> None:
        for index, value in payload["results"]:
            results[index] = value
        run = telemetry.current()
        worker_telemetry = payload.get("telemetry")
        if worker_telemetry is not None and run.enabled:
            run.metrics.merge(worker_telemetry["metrics"])
            for event in worker_telemetry["events"]:
                if event.get("kind") in _SKIPPED_WORKER_EVENTS:
                    continue
                fields = {
                    key: value
                    for key, value in event.items()
                    if key not in _BOOKKEEPING_FIELDS
                }
                # The parent stamps its own ts/seq at merge time; keep the
                # worker's originals so trace export can place the span
                # when the work actually ran, in order.
                run.emit(
                    event["kind"],
                    worker_pid=payload["pid"],
                    worker_ts=event.get("ts"),
                    worker_seq=event.get("seq"),
                    **fields,
                )
        run.metrics.counter("parallel/tasks_total").inc(len(chunk.tasks))
        run.metrics.histogram("parallel/chunk_seconds").observe(
            payload["seconds"]
        )
        run.emit(
            "parallel_chunk",
            worker_pid=payload["pid"],
            tasks=len(chunk.tasks),
            seconds=payload["seconds"],
            attempt=chunk.attempts,
        )
        tracker.update(len(chunk.tasks))

    def _record_retry(self, chunk: _Chunk, reason: str) -> None:
        chunk.attempts += 1
        chunk.last_reason = reason
        chunk.future = None
        chunk.running = False
        run = telemetry.current()
        run.metrics.counter("parallel/retries_total").inc()
        run.emit(
            "parallel_retry",
            indices=list(chunk.indices),
            attempt=chunk.attempts,
            reason=reason,
        )
        logger.warning(
            "retrying chunk %s (attempt %d/%d): %s",
            chunk.indices,
            chunk.attempts,
            RETRIES + 1,
            reason,
        )

    def _fallback(self, fn, tasks, broadcast, label, reason: str) -> List[Any]:
        run = telemetry.current()
        run.metrics.counter("parallel/fallbacks_total").inc()
        run.emit("parallel_fallback", reason=reason, workers=self.workers)
        logger.warning("parallel execution unavailable (%s); running serial", reason)
        return self._run_serial(fn, tasks, broadcast, label)

    # -- public API ---------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any, Dict[str, Any]], Any],
        tasks: Sequence[Any],
        broadcast: Optional[Broadcast] = None,
        *,
        label: str = "parallel_map",
    ) -> List[Any]:
        """Apply ``fn(task, context)`` to every task; results in task order.

        ``fn`` must be a module-level function (workers import it by
        qualified name) and ``tasks`` must pickle; ``context`` is the
        materialised ``broadcast`` bundle (``{}`` when none is given).
        ``label`` names the map's progress heartbeats, serial or pooled.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.workers <= 1:
            return self._run_serial(fn, tasks, broadcast, label)

        capture = telemetry.current().enabled
        monitor = telemetry.current().monitoring
        profile = telemetry.current().profiling
        try:
            pool = self._make_pool(broadcast, capture, monitor, profile)
        except Exception as exc:  # pool construction is best-effort
            return self._fallback(
                fn, tasks, broadcast, label, f"pool creation failed: {exc}"
            )

        size = config.default_chunk_size(len(tasks), self.workers)
        chunks = [
            _Chunk(
                indices=list(range(start, min(start + size, len(tasks)))),
                tasks=tasks[start : start + size],
            )
            for start in range(0, len(tasks), size)
        ]
        run = telemetry.current()
        run.emit(
            "parallel_map_start",
            tasks=len(tasks),
            workers=self.workers,
            chunk_size=size,
            chunks=len(chunks),
        )

        results: Dict[int, Any] = {}
        failures: List[TaskFailure] = []
        tracker = ProgressTracker(total=len(tasks), label=label)
        try:
            pool = self._drive(
                pool, fn, broadcast, capture, monitor, profile, chunks,
                results, failures, tracker,
            )
        finally:
            self._teardown_pool(pool)
        tracker.finish()
        run.emit(
            "parallel_map_end",
            completed=len(results),
            failed=len(failures),
        )
        if failures:
            raise ParallelExecutionError(failures, completed=len(results))
        return [results[i] for i in range(len(tasks))]

    # -- scheduling loop ----------------------------------------------------
    def _drive(
        self,
        pool: cf.ProcessPoolExecutor,
        fn,
        broadcast,
        capture: bool,
        monitor: bool,
        profile: bool,
        chunks: List[_Chunk],
        results: Dict[int, Any],
        failures: List[TaskFailure],
        tracker: ProgressTracker,
    ) -> cf.ProcessPoolExecutor:
        """Submit, wait, retry.  Returns the (possibly rebuilt) pool."""
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        def pending() -> List[_Chunk]:
            return [c for c in chunks if not c.done]

        def give_up(chunk: _Chunk, reason: str) -> None:
            chunk.done = True
            chunk.future = None
            for index in chunk.indices:
                failures.append(
                    TaskFailure(index=index, attempts=chunk.attempts, reason=reason)
                )

        def rebuild_pool(old: cf.ProcessPoolExecutor) -> cf.ProcessPoolExecutor:
            self._teardown_pool(old)
            for chunk in pending():
                chunk.future = None
                chunk.running = False
            return self._make_pool(broadcast, capture, monitor, profile)

        while pending():
            # (Re)submit everything without a live future.  A chunk past
            # its retry budget is converted to failures instead.
            for chunk in pending():
                if chunk.future is not None:
                    continue
                if chunk.attempts > RETRIES:
                    give_up(chunk, chunk.last_reason or "retries exhausted")
                    continue
                try:
                    chunk.future = pool.submit(
                        run_chunk, fn, list(zip(chunk.indices, chunk.tasks))
                    )
                except BrokenProcessPool:
                    self._on_pool_break(pending())
                    pool = rebuild_pool(pool)
                    break
            live = [c for c in pending() if c.future is not None]
            if not live:
                continue

            cf.wait(
                [c.future for c in live],
                timeout=_WAIT_TICK,
                return_when=cf.FIRST_COMPLETED,
            )
            broken = False
            for chunk in live:
                future = chunk.future
                if not future.done():
                    # Seen on a worker: a suspect if the pool breaks.
                    chunk.running = chunk.running or future.running()
                    continue
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    self._on_pool_break(pending())
                    broken = True
                    break
                except Exception as exc:
                    self._record_retry(chunk, f"{type(exc).__name__}: {exc}")
                    continue
                chunk.done = True
                chunk.future = None
                self._absorb_chunk(chunk, payload, results, tracker)
            if broken:
                pool = rebuild_pool(pool)
        return pool

    def _on_pool_break(self, pending_chunks: List[_Chunk]) -> None:
        """Charge the pool break to the chunks that plausibly caused it.

        A chunk that was observed running when the pool died may have
        crashed its worker, so it pays an attempt.  If *no* pending chunk
        was ever seen running (the break happened during worker start-up,
        e.g. an initialiser crash), every pending chunk pays — otherwise
        the rebuild loop could spin forever without consuming retries.
        """
        suspects = [c for c in pending_chunks if c.running]
        if not suspects:
            suspects = pending_chunks
        for chunk in suspects:
            self._record_retry(chunk, "worker process died")
        for chunk in pending_chunks:
            chunk.future = None
            chunk.running = False
