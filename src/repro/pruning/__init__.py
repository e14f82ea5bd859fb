"""Weight pruning: one-shot magnitude, ADMM-based, and structured."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "admm": ("ADMMConfig", "ADMMPruner", "project_sparse"),
        "magnitude": ("magnitude_prune", "finetune_pruned"),
        "masks": (
            "magnitude_mask", "apply_masks", "sparsity", "model_sparsity",
            "prunable_parameters",
        ),
        "structured": (
            "channel_prune", "channel_norms", "channel_sparsity",
            "column_savings", "finetune_channel_pruned",
        ),
    },
)
