"""``repro.parallel`` — deterministic process-pool execution for Monte Carlo.

The paper's headline numbers are means over 100 independent fault draws;
this package runs those draws (and fleet devices, and sensitivity
sweeps) across worker processes without changing a single bit of the
result.  The determinism contract, the seeding scheme, robustness
semantics and tuning advice are documented in ``docs/PARALLELISM.md``.

This package is the library's only sanctioned user of the stdlib
``multiprocessing`` / ``concurrent.futures`` machinery — ``repro.lint``
rule RL009 flags such imports anywhere else, keeping every process-pool
code path behind the one executor whose determinism and fault tolerance
are tested.

Quick use::

    from repro.parallel import Broadcast, ModelBroadcast, ParallelMap

    pmap = ParallelMap(workers=4)
    results = pmap.map(
        my_task_fn,                       # module-level: fn(task, context)
        tasks,                            # picklable, seed-carrying payloads
        Broadcast(model=ModelBroadcast(model), loader=loader),
    )
"""

from .._exports import lazy_exports

#: Declared worker-submission sites for ``repro.lint`` rule RL014:
#: ``"Class.method"`` -> positional index of the callable that crosses
#: the process boundary.  The worker-purity pass reads this mapping out
#: of the AST (no import), so adding a new executor entry point here is
#: what puts it under static analysis.
LINT_SUBMISSION_SITES = {
    "ParallelMap.map": 0,
}

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".": ("LINT_SUBMISSION_SITES",),
        "broadcast": ("Broadcast", "ModelBroadcast"),
        "config": ("WORKERS_ENV", "resolve_workers", "default_chunk_size"),
        "executor": ("ParallelMap", "ParallelExecutionError", "TaskFailure"),
    },
)
