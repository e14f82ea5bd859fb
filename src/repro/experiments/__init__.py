"""Experiment harness: regenerates every table and figure of the paper."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": (
            "ExperimentScale", "SCALES", "get_scale", "TABLE1_TEST_RATES",
            "TABLE1_TRAIN_RATES",
        ),
        "figure2": ("run_figure2", "Figure2Result"),
        "io": ("save_reports", "load_reports", "save_text", "save_json"),
        "runner": (
            "build_backbone", "make_loaders", "pretrain_model", "clone_model",
            "train_fault_tolerant", "evaluate_defect_grid", "method_report",
        ),
        "stats": (
            "mean_confidence_interval", "paired_comparison",
            "PairedComparison",
        ),
        "table1": ("run_table1", "Table1Result"),
        "table2": ("run_table2", "Table2Result"),
        "tables": ("render_table1", "render_table2_rows", "render_series"),
    },
)
