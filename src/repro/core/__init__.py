"""The paper's contribution: stochastic fault-tolerant training, defect
evaluation and the Stability Score."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "evaluate": (
            "evaluate_accuracy", "evaluate_defect_accuracy",
            "evaluate_one_draw", "FaultDrawSpec", "DefectEvaluation",
        ),
        "injector": ("apply_fault", "FaultInjector"),
        "analysis": ("expected_fault_impact", "FaultImpact"),
        "calibration": ("recalibrate_batchnorm",),
        "fleet": ("simulate_fleet", "FleetReport"),
        "report": ("AccuracyReport",),
        "sensitivity": ("layer_sensitivity", "LayerSensitivity"),
        "stability": ("stability_score", "StabilityResult"),
        "training": (
            "Trainer", "OneShotFaultTolerantTrainer",
            "ProgressiveFaultTolerantTrainer", "TrainingHistory",
            "default_progressive_schedule",
        ),
    },
)
