"""Analog inference layers: forward passes routed through crossbar MVMs.

:mod:`repro.reram.deploy` simulates deployment by reading effective
weights back into ordinary layers.  This module goes one level lower: it
*replaces* Linear/Conv2d layers with analog counterparts whose forward
pass is the tiled crossbar matrix-vector product itself (optionally
bit-serial through an ADC).  Faults injected into the tiles then act on
the live datapath.

Analog layers are inference-only: ``backward`` raises.  Train in software,
deploy analog — the paper's workflow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn.conv import conv2d_blocks
from .adc import ADCModel, BitSerialMVM
from .faults import StuckAtFaultSpec
from .mapper import CrossbarMapper, MappedMatrix

__all__ = ["AnalogLinear", "AnalogConv2d", "convert_to_analog"]


class _AnalogBase(nn.Module):
    """Shared plumbing: holds the mapped matrix and the optional ADC path."""

    def __init__(
        self,
        mapped: MappedMatrix,
        bias: Optional[np.ndarray],
        adc: Optional[ADCModel] = None,
        input_bits: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.mapped = mapped
        self.bias_value = None if bias is None else np.asarray(bias, float)
        if adc is not None and input_bits is None:
            input_bits = 8
        self._bit_serial = (
            BitSerialMVM(mapped, input_bits=input_bits, adc=adc)
            if input_bits is not None
            else None
        )

    def _mvm(self, x: np.ndarray) -> np.ndarray:
        if self._bit_serial is not None:
            return self._bit_serial.matvec(x)
        return self.mapped.matvec(x)

    def inject_faults(self, p_sa: float, rng: np.random.Generator) -> int:
        """Draw stuck-at faults into this layer's tiles."""
        return self.mapped.inject_faults(StuckAtFaultSpec(p_sa), rng)

    def clear_faults(self) -> None:
        self.mapped.clear_faults()

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise RuntimeError(
            "analog layers are inference-only; train the software model "
            "and re-deploy"
        )


class AnalogLinear(_AnalogBase):
    """Linear layer computed on crossbars."""

    @classmethod
    def from_linear(
        cls,
        layer: nn.Linear,
        mapper: CrossbarMapper,
        adc: Optional[ADCModel] = None,
        input_bits: Optional[int] = None,
    ) -> "AnalogLinear":
        mapped = mapper.map_matrix(layer.weight.data.T)  # (in, out)
        bias = None if layer.bias is None else layer.bias.data.copy()
        return cls(mapped, bias, adc=adc, input_bits=input_bits)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self._mvm(x)
        if self.bias_value is not None:
            out = out + self.bias_value
        return out


class AnalogConv2d(_AnalogBase):
    """Conv2d lowered to im2col and computed on crossbars.

    Shares :func:`repro.nn.conv.conv2d_blocks` with ``Conv2d``: one
    crossbar MVM per block of images, never a whole-batch patch matrix.
    The DAC ranges each input row on its own, so the rows of one block
    quantise as they would in the whole batch.  The crossbar GEMMs see a
    block's rows only, so they round like ``Conv2d``'s (see there).
    """

    @classmethod
    def from_conv(
        cls,
        layer: nn.Conv2d,
        mapper: CrossbarMapper,
        adc: Optional[ADCModel] = None,
        input_bits: Optional[int] = None,
    ) -> "AnalogConv2d":
        out_channels = layer.out_channels
        weight_mat = layer.weight.data.reshape(out_channels, -1).T
        mapped = mapper.map_matrix(weight_mat)  # (C*k*k, out)
        bias = None if layer.bias is None else layer.bias.data.copy()
        analog = cls(mapped, bias, adc=adc, input_bits=input_bits)
        analog.kernel_size = layer.kernel_size
        analog.stride = layer.stride
        analog.padding = layer.padding
        analog.out_channels = out_channels
        return analog

    def forward(self, x: np.ndarray) -> np.ndarray:
        def matmul(cols: np.ndarray, rows: np.ndarray) -> None:
            rows[...] = self._mvm(cols)

        return conv2d_blocks(
            x,
            self.kernel_size,
            self.stride,
            self.padding,
            self.out_channels,
            matmul,
            self.bias_value,
        )


def convert_to_analog(
    model: nn.Module,
    mapper: Optional[CrossbarMapper] = None,
    adc: Optional[ADCModel] = None,
    input_bits: Optional[int] = None,
) -> nn.Module:
    """Rewrite a model in place: every Linear/Conv2d becomes analog.

    Returns the same model object for convenience.  BatchNorm, pooling and
    activations stay digital (they live in the accelerator's peripheral
    logic).  Use :func:`repro.experiments.runner.clone_model` first if the
    software model must be preserved.
    """
    mapper = mapper if mapper is not None else CrossbarMapper()
    for module in list(model.modules()):
        for name, child in list(module._modules.items()):
            if isinstance(child, nn.Linear):
                replacement: nn.Module = AnalogLinear.from_linear(
                    child, mapper, adc=adc, input_bits=input_bits
                )
            elif isinstance(child, nn.Conv2d):
                replacement = AnalogConv2d.from_conv(
                    child, mapper, adc=adc, input_bits=input_bits
                )
            else:
                continue
            if isinstance(module, nn.Sequential):
                module.replace(int(name.removeprefix("layer")), replacement)
            else:
                setattr(module, name, replacement)
    return model
