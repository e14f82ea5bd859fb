"""repro — Fault-Tolerant DNNs for Processing-In-Memory Edge Systems.

A from-scratch reproduction of the DATE 2022 paper by Wang, Yuan et al.:
stochastic fault-tolerant training (one-shot and progressive) that makes
DNNs robust to ReRAM stuck-at faults, the Stability Score metric, and the
pruning/fault-tolerance interaction study — together with every substrate
it needs: a numpy neural-network framework (``repro.nn``), a behavioural
ReRAM crossbar simulator (``repro.reram``), pruning algorithms
(``repro.pruning``), synthetic CIFAR-analogue datasets
(``repro.datasets``) and an experiment harness (``repro.experiments``).

Quick taste::

    from repro import (
        OneShotFaultTolerantTrainer, evaluate_defect_accuracy, stability_score,
    )
"""

import logging as _logging

from ._exports import lazy_exports
from ._heap import keep_heap_mapped as _keep_heap_mapped

# Library convention: emit through the "repro" logger, let applications
# (e.g. the experiments CLI) decide where it goes.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

# One allocator policy for the process: a training step's freed buffers
# stay mapped for the next step instead of being trimmed and faulted back.
_keep_heap_mapped()

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".": (
            "nn", "datasets", "models", "reram", "core", "parallel", "pruning",
            "experiments", "forensics", "baselines", "quantization", "seeding",
            "telemetry", "__version__",
        ),
        "core": (
            "apply_fault", "FaultInjector", "Trainer",
            "OneShotFaultTolerantTrainer", "ProgressiveFaultTolerantTrainer",
            "default_progressive_schedule", "evaluate_accuracy",
            "evaluate_defect_accuracy", "evaluate_one_draw", "DefectEvaluation",
            "stability_score", "AccuracyReport",
        ),
        "reram": ("WeightSpaceFaultModel", "StuckAtFaultSpec", "SA0_SA1_RATIO"),
    },
)

# The paper's pipeline loads with the package: the runner's pretrain ->
# fault-tolerant fine-tune -> defect evaluation and the fleet simulation,
# with every nn, reram, core and parallel module they reach.  A pool
# worker forked later then never imports a pipeline module itself, and a
# tool that replaces a pipeline function finds every binding of it
# loaded.  The infrastructure stays behind the tables.
from .core import fleet as _fleet  # noqa: F401
from .experiments import runner as _runner  # noqa: F401
