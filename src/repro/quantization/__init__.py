"""Quantisation for crossbar deployment: PTQ, QAT and the combined
quantise-then-fault weight transform."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "qat": (
            "quantize_model_weights", "QuantizationAwareTrainer",
            "QuantizedFaultModel",
        ),
    },
)
