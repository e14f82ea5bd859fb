"""``repro.nn`` — a compact, fully-tested numpy neural-network framework.

This package replaces the PyTorch substrate of the original paper (no GPU /
no torch in this environment).  It provides layers with hand-written,
gradient-checked backward passes, standard optimisers, learning-rate
schedules and losses — everything needed to train the CIFAR-style ResNets
the paper evaluates.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "activations": (
            "ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Identity", "Dropout",
        ),
        "container": ("Sequential", "Residual"),
        "conv": ("Conv2d",),
        "cost": (
            "LayerCost", "ModelCost", "capture_shapes", "model_cost",
            "crossbar_footprint",
        ),
        "linear": ("Linear",),
        "loss": ("CrossEntropyLoss", "MSELoss"),
        "lr_scheduler": (
            "LRScheduler", "CosineAnnealingLR", "StepLR", "MultiStepLR",
            "WarmupLR",
        ),
        "module": ("Module", "Parameter", "RemovableHandle", "no_grad"),
        "norm": ("BatchNorm1d", "BatchNorm2d", "GroupNorm"),
        "optim": ("clip_grad_norm", "Optimizer", "SGD", "Adam"),
        "pooling": ("MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten"),
        "serialization": (
            "save_checkpoint", "load_checkpoint", "state_dict_to_bytes",
            "state_dict_from_bytes",
        ),
    },
)
