"""Datasets and the data-loading pipeline."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cifar": (
            "cifar10_available", "cifar100_available", "load_cifar10",
            "load_cifar100",
        ),
        "dataset": ("Dataset", "ArrayDataset", "Subset"),
        "loader": ("DataLoader",),
        "synthetic": (
            "SyntheticConfig", "SyntheticImageClassification",
            "make_synthetic_pair",
        ),
        "transforms": (
            "Compose", "Normalize", "RandomCrop", "RandomHorizontalFlip",
            "GaussianNoise",
        ),
    },
)
