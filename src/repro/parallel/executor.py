"""`ParallelMap`: deterministic, fault-tolerant process-pool mapping.

The executor maps a module-level function over a list of picklable tasks
and returns the results in task order.  Three properties the Monte Carlo
pipeline relies on:

* **Determinism** — the executor never influences results.  Tasks carry
  their own seed streams (see :func:`repro.seeding.draw_streams`), so
  the value computed for task ``i`` is a pure function of the task, the
  broadcast context, and nothing else; worker count, chunk size, and
  scheduling order only affect wall-clock time.
* **Fault tolerance** — a task that raises is retried up to ``retries``
  times; a worker that dies (pool breaks) or hangs past the timeout is
  replaced by tearing the pool down and rebuilding it, and the affected
  chunks are resubmitted.  When a chunk exhausts its retries the whole
  map raises :class:`ParallelExecutionError` — a partial Monte Carlo
  mean is never silently returned.
* **Graceful degradation** — workers 0/1, or any failure to *create* a
  pool (missing OS support, bad start method), falls back to in-process
  serial execution, which is the same code path the task function takes
  inside a worker.

Pools are per-:meth:`~ParallelMap.map`-call; the broadcast bundle is
pickled once per worker via the pool initialiser, not once per task.
The pool machinery (``concurrent.futures``, ``multiprocessing``) is
imported by the methods that build and drive a pool, so a serial map
never loads it; a pooled map loads it in the parent, before the fork.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from .. import telemetry
from ..telemetry.progress import ProgressTracker
from .broadcast import Broadcast
from .config import default_chunk_size, resolve_workers
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

#: Poll interval for the completion/hang-detection loop, seconds.
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
    running_since: Optional[float] = None
    last_reason: str = ""
    done: bool = False


class ParallelMap:
    """Map a function over tasks with a deterministic process pool.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` defers to :data:`~repro.parallel.WORKERS_ENV`,
        0/1 run serial in-process.
    chunk_size:
        Tasks per submission; default gives each worker ~4 chunks.
    timeout:
        Per-task seconds before a running chunk is declared hung and its
        worker replaced (a chunk of *k* tasks gets ``k * timeout``).
        ``None`` disables hang detection.
    retries:
        Extra attempts per chunk after its first failure.
    start_method:
        ``multiprocessing`` start method (``fork``/``spawn``/``forkserver``);
        ``None`` uses the platform default.  An unsupported method falls
        back to serial execution rather than failing the evaluation.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        chunk_size: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        start_method: Optional[str] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.retries = retries
        self.start_method = start_method

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
        from multiprocessing import get_context

        mp_context = (
            get_context(self.start_method) if self.start_method else None
        )
        return cf.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp_context,
            initializer=initialize_worker,
            initargs=(broadcast, capture, monitor, profile),
        )

    @staticmethod
    def _teardown_pool(pool: cf.ProcessPoolExecutor) -> None:
        """Stop a pool that may contain hung or dead workers.

        ``shutdown`` alone would join workers forever if one is hung, so
        live processes are terminated first (``_processes`` is private
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
        tracker: Optional[ProgressTracker] = None,
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
        if tracker is not None:
            tracker.update(len(chunk.tasks))

    def _record_retry(self, chunk: _Chunk, reason: str) -> None:
        chunk.attempts += 1
        chunk.last_reason = reason
        chunk.future = None
        chunk.running_since = None
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
            self.retries + 1,
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

        size = self.chunk_size or default_chunk_size(len(tasks), self.workers)
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
        # Heartbeats/ETA over completed tasks; the stall window mirrors the
        # hang-detection budget of one chunk, so a stall warning lands in
        # the event stream at about the moment a hung chunk would be due.
        tracker = ProgressTracker(
            total=len(tasks),
            label=label,
            stall_timeout=(
                self.timeout * size if self.timeout is not None else None
            ),
        )
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
        tracker: Optional[ProgressTracker] = None,
    ) -> cf.ProcessPoolExecutor:
        """Submit, watch, retry.  Returns the (possibly rebuilt) pool."""
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
                chunk.running_since = None
            return self._make_pool(broadcast, capture, monitor, profile)

        while pending():
            # (Re)submit everything without a live future.  A chunk past
            # its retry budget is converted to failures instead.
            for chunk in pending():
                if chunk.future is not None:
                    continue
                if chunk.attempts > self.retries:
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
            if tracker is not None:
                tracker.check_stall()
            now = time.monotonic()
            broken = False
            for chunk in live:
                future = chunk.future
                if future is None:
                    continue
                if not future.done():
                    # Hang detection: the per-task budget starts counting
                    # when the chunk is first observed on a worker.
                    if future.running() and chunk.running_since is None:
                        chunk.running_since = now
                    if (
                        self.timeout is not None
                        and chunk.running_since is not None
                        and now - chunk.running_since
                        > self.timeout * len(chunk.tasks)
                    ):
                        self._record_retry(
                            chunk,
                            f"timed out after {self.timeout:g}s/task",
                        )
                        broken = True  # hung worker: must replace the pool
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
        suspects = [c for c in pending_chunks if c.running_since is not None]
        if not suspects:
            suspects = pending_chunks
        for chunk in suspects:
            self._record_retry(chunk, "worker process died")
        for chunk in pending_chunks:
            chunk.future = None
            chunk.running_since = None
