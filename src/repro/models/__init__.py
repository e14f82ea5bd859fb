"""Model zoo: CIFAR ResNets plus small reference networks."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "registry": ("MODEL_REGISTRY", "build_model", "register_model"),
        "resnet": (
            "BasicBlock", "ResNet", "resnet8", "resnet14", "resnet20",
            "resnet32", "resnet44", "resnet56",
        ),
        "simple": ("MLP", "SimpleCNN"),
    },
)
