"""2-D convolution layer via im2col lowering."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..seeding import resolve_rng
from . import init
from .functional import col2im, im2col
from .module import Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution over NCHW tensors.

    Only square kernels are supported — every network in the paper
    (CIFAR-style ResNets) uses 3x3 and 1x1 kernels.

    Parameters
    ----------
    in_channels, out_channels:
        Channel widths.
    kernel_size:
        Square kernel side.
    stride, padding:
        Spatial stride and symmetric zero padding.
    bias:
        Whether to learn a per-output-channel bias.  ResNets disable it
        because BatchNorm follows each conv.
    rng:
        Generator used for weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("channels, kernel_size and stride must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        rng = resolve_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        # The input, not its k*k-times larger patches: backward rebuilds them.
        self._saved = x
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ weight_mat.T  # (N*out_h*out_w, out_channels)
        if self.bias is not None:
            out = out + self.bias.data
        n = x.shape[0]
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._pop_saved()
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        # (N, C_out, H, W) -> rows matching the im2col layout
        grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(
            x.shape[0] * out_h * out_w, self.out_channels
        )
        self.weight.grad += (grad_rows.T @ cols).reshape(self.weight.shape)
        del cols  # free the patches before grad_cols, which is as large
        if self.bias is not None:
            self.bias.grad += grad_rows.sum(axis=0)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = grad_rows @ weight_mat
        return col2im(grad_cols, x.shape, self.kernel_size, self.stride, self.padding)
