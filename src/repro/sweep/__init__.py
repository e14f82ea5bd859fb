"""Declarative experiment sweeps over the fault-tolerance pipeline.

``repro.sweep`` turns the paper's comparison surface — architecture x
stuck-at fault rate x training variant, optionally crossed with training
fault rate, pruning sparsity and quantization bits, repeated over seeds
— into a declarative grid spec that is

* **validated fail-fast** (:mod:`~repro.sweep.validate`): unknown keys,
  out-of-range fault rates and incompatible axis combinations are
  rejected in milliseconds, before any training;
* **expanded deterministically** (:mod:`~repro.sweep.plan`) into
  config-digested cells;
* **executed resumably** (:mod:`~repro.sweep.execute`) through
  :mod:`repro.parallel`, one telemetry run per cell — a re-invoked sweep
  skips every digest already completed in the run ledger;
* **ranked** (:mod:`~repro.sweep.report`) into a Stability-Score
  leaderboard that is byte-identical regardless of worker count or
  interruption.

Entry points: :func:`run_sweep` from code, ``python -m repro.sweep``
from the shell (``check`` / ``run`` / ``status`` / ``report``).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "execute": (
            "run_cell_task", "execute_plan", "ExecutionOutcome", "run_sweep",
            "SweepOutcome",
        ),
        "plan": ("SweepCell", "SweepPlan", "cell_digest", "expand_plan"),
        "report": (
            "build_leaderboard", "render_leaderboard", "write_leaderboard",
            "emit_sweep_report",
        ),
        "resume": ("completed_cells", "load_cell_result", "split_pending"),
        "spec": (
            "PROFILES", "VARIANTS", "REQUIRED_AXES", "OPTIONAL_AXES",
            "SweepSpec",
        ),
        "validate": (
            "load_spec", "SpecProblem", "SweepValidationError",
            "validate_spec", "build_spec",
        ),
    },
)
