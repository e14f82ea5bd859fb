"""Cell execution: run a plan through ``repro.parallel``, resumably.

Each pending cell becomes one picklable task mapped over a
:class:`~repro.parallel.ParallelMap` pool (``workers=0`` runs serial
in-process; results are bit-identical at any worker count because every
cell derives all randomness from its own digested configuration).  A
cell task opens its **own** telemetry session — one run directory per
cell under ``<sweep_dir>/runs/`` — records the pipeline's events there,
emits a ``sweep_cell`` summary event, and finally writes the ``cell.json``
result document that marks the cell complete (see
:mod:`repro.sweep.resume` for the contract).

The orchestrator deliberately runs *outside* any telemetry session while
cells execute: cell sessions own their run directories outright, whether
the cell runs in this process (serial) or in a pool worker (where
:func:`repro.parallel.worker.initialize_worker` has detached any
inherited run).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..experiments.config import ExperimentScale
from ..experiments.runner import run_pipeline_cell
from ..parallel import ParallelMap

# A cell may prune and quantize, and its directory-backed session reads
# git provenance and exports a trace on close.  Those deferred imports
# load here, so the pool workers forked per pass inherit them instead of
# importing them once per worker.
from ..bench import provenance as _provenance  # noqa: F401
from ..pruning import magnitude as _magnitude  # noqa: F401
from ..quantization import qat as _qat  # noqa: F401
from ..telemetry import trace as _trace  # noqa: F401
from .plan import SweepPlan, expand_plan
from .report import (
    build_leaderboard,
    emit_sweep_report,
    render_leaderboard,
    write_leaderboard,
)
from .resume import (
    DIGEST_CONFIG_KEY,
    cell_result_path,
    clear_stale_cell_run,
    completed_cells,
    split_pending,
)
from .spec import SweepSpec
from .validate import load_spec

__all__ = [
    "CELL_RESULT_VERSION",
    "run_cell_task",
    "ExecutionOutcome",
    "execute_plan",
    "SweepOutcome",
    "run_sweep",
]

_log = logging.getLogger("repro.sweep")

#: Version of the ``cell.json`` result document.
CELL_RESULT_VERSION = 1


def run_cell_task(task: Dict[str, Any], context: Dict[str, Any]) -> dict:
    """Execute one sweep cell (module-level: pool workers import it).

    ``task`` carries the cell's full resolved configuration (scale
    fields, grid point, digest, run id) plus the sweep runs directory;
    ``context`` is unused (cells are self-contained by design — the
    determinism contract forbids shared mutable state).  Returns the
    ``cell.json`` result document it wrote.
    """
    point = task["point"]
    scale = ExperimentScale(**task["scale"])
    with telemetry.session(
        task["runs_dir"],
        run_id=task["run_id"],
        config={
            "sweep": task["sweep"],
            "sweep_profile": task["profile"],
            DIGEST_CONFIG_KEY: task["digest"],
            "cell": dict(point),
        },
    ) as run:
        metrics = run_pipeline_cell(
            scale,
            variant=point["variant"],
            p_sa=point["p_sa"],
            p_sa_train=point["p_sa_train"],
            sparsity=point["sparsity"],
            quant_bits=point["quant_bits"],
        )
        run.emit(
            "sweep_cell",
            sweep=task["sweep"],
            profile=task["profile"],
            digest=task["digest"],
            arch=point["arch"],
            variant=point["variant"],
            p_sa=point["p_sa"],
            p_sa_train=metrics["p_sa_train"],
            sparsity=point["sparsity"],
            quant_bits=point["quant_bits"],
            seed=point["seed"],
            acc_pretrain=metrics["acc_pretrain"],
            acc_retrain=metrics["acc_retrain"],
            acc_defect=metrics["acc_defect"],
            stability_score=metrics["stability_score"],
        )
        run_dir = run.directory
    result = {
        "version": CELL_RESULT_VERSION,
        "digest": task["digest"],
        "sweep": task["sweep"],
        "profile": task["profile"],
        "point": dict(point),
        "metrics": metrics,
    }
    # Written only after the telemetry session closed cleanly (run.json
    # exists), so cell.json's presence is the completion marker.  The
    # rename makes the marker atomic against kills mid-write.
    path = cell_result_path(run_dir)
    staging = path + ".tmp"
    with open(staging, "w") as handle:
        json.dump(result, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(staging, path)
    return result


@dataclass
class ExecutionOutcome:
    """What one :func:`execute_plan` invocation did."""

    plan: SweepPlan
    #: Cells already complete before this invocation (resume skips).
    skipped: int
    #: Cells executed by this invocation.
    executed: int
    #: Cells still pending afterwards (only with ``limit``).
    remaining: int
    #: Result documents of every completed cell of the plan, in plan
    #: order (skipped cells' results are re-read from their ``cell.json``).
    results: List[dict] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every cell of the plan now has a result."""
        return self.remaining == 0


def execute_plan(
    plan: SweepPlan,
    sweep_dir: str,
    workers: Optional[int] = None,
    limit: Optional[int] = None,
) -> ExecutionOutcome:
    """Run a plan's pending cells; resume is implicit and always on.

    Parameters
    ----------
    plan:
        The expanded (spec, profile) run plan.
    sweep_dir:
        Sweep working directory; cell runs land under ``<sweep_dir>/runs``.
    workers:
        Sweep-level worker processes (``None`` defers to
        ``REPRO_WORKERS``; 0/1 = serial).  A performance knob only.
    limit:
        Execute at most this many pending cells, then return (the
        deterministic "interruption" used by CI and the resume tests).
    """
    if telemetry.current().enabled:
        raise RuntimeError(
            "execute_plan manages one telemetry session per cell; end the "
            "active telemetry run first"
        )
    runs_dir = os.path.join(sweep_dir, "runs")
    completed = completed_cells(runs_dir)
    done, pending = split_pending(plan.cells, completed)
    if limit is not None:
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        pending, deferred = pending[:limit], pending[limit:]
    else:
        deferred = []
    _log.info(
        "sweep %s [%s]: %d cell(s) — %d complete, %d to run, %d deferred",
        plan.spec.name, plan.profile, len(plan.cells), len(done),
        len(pending), len(deferred),
    )
    if pending:
        tasks = []
        for cell in pending:
            clear_stale_cell_run(runs_dir, cell)
            tasks.append({
                "sweep": plan.spec.name,
                "profile": plan.profile,
                "digest": cell.digest,
                "run_id": cell.run_id,
                "runs_dir": runs_dir,
                "point": cell.point(),
                "scale": dataclasses.asdict(
                    plan.spec.scale_for(plan.profile, cell.arch, cell.seed)
                ),
            })
        executed = ParallelMap(workers=workers).map(run_cell_task, tasks)
        for result in executed:
            completed[result["digest"]] = result
    results = [
        completed[cell.digest]
        for cell in plan.cells
        if cell.digest in completed
    ]
    return ExecutionOutcome(
        plan=plan,
        skipped=len(done),
        executed=len(pending),
        remaining=len(deferred),
        results=results,
    )


@dataclass
class SweepOutcome:
    """End-to-end result of :func:`run_sweep`."""

    spec: SweepSpec
    profile: str
    outcomes: List[ExecutionOutcome]
    #: Ranked leaderboard document (``None`` when the target profile's
    #: grid is still incomplete, e.g. under ``limit``).
    leaderboard: Optional[dict] = None
    leaderboard_path: Optional[str] = None

    @property
    def rendered(self) -> str:
        """Leaderboard (or progress note) as printable text."""
        if self.leaderboard is not None:
            return render_leaderboard(self.leaderboard)
        last = self.outcomes[-1]
        return (
            f"sweep {self.spec.name} [{self.profile}]: "
            f"{len(last.results)}/{len(last.plan.cells)} cell(s) complete; "
            "re-run to resume"
        )


def run_sweep(
    source,
    sweep_dir: Optional[str] = None,
    profile: str = "full",
    workers: Optional[int] = None,
    limit: Optional[int] = None,
    joint_test: bool = True,
) -> SweepOutcome:
    """Validate, (joint-)test, execute and rank one sweep end-to-end.

    The high-level API behind ``python -m repro.sweep run`` and the
    examples.  Validation is always strict — nothing silently ignored
    can reach training.

    Parameters
    ----------
    source:
        Spec source accepted by :func:`~repro.sweep.spec.load_spec`.
    sweep_dir:
        Working directory (default ``sweeps/<spec name>``).
    profile:
        Target profile (``smoke`` or ``full``).
    workers:
        Sweep-level worker processes (``None`` defers to ``REPRO_WORKERS``).
    limit:
        Cap on cells executed *per profile pass* this invocation.
    joint_test:
        When targeting ``full``, first run every cell at ``smoke`` scale
        (DeepPavlov-style cheap joint test) so grid-wide mistakes fail in
        seconds; the smoke pass resumes like any other.
    """
    spec = load_spec(source, strict=True)
    if sweep_dir is None:
        sweep_dir = os.path.join("sweeps", spec.name)
    outcomes: List[ExecutionOutcome] = []
    if profile == "full" and joint_test:
        smoke = execute_plan(
            expand_plan(spec, "smoke"), sweep_dir, workers=workers, limit=limit
        )
        outcomes.append(smoke)
        if not smoke.complete:
            return SweepOutcome(spec=spec, profile=profile, outcomes=outcomes)
    target = execute_plan(
        expand_plan(spec, profile), sweep_dir, workers=workers, limit=limit
    )
    outcomes.append(target)
    outcome = SweepOutcome(spec=spec, profile=profile, outcomes=outcomes)
    if target.complete:
        outcome.leaderboard = build_leaderboard(
            target.results, sweep=spec.name, profile=profile
        )
        outcome.leaderboard_path = write_leaderboard(outcome.leaderboard, sweep_dir)
        emit_sweep_report(
            outcome.leaderboard, os.path.join(sweep_dir, "runs")
        )
    return outcome
