"""Pooling and reshaping layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .functional import col2im, conv_output_size, im2col
from .module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten"]


class MaxPool2d(Module):
    """Max pooling with square windows (stride defaults to kernel size)."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        # Pool each channel independently by treating channels as batch.
        cols, _, _ = im2col(x.reshape(n * c, 1, h, w), k, s, 0)
        self._saved = (cols.argmax(axis=1), x.shape, out_h, out_w)
        out = cols.max(axis=1)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        argmax, (n, c, h, w), out_h, out_w = self._pop_saved()
        k, s = self.kernel_size, self.stride
        grad_rows = grad_out.reshape(n * c * out_h * out_w)
        grad_cols = np.zeros((grad_rows.shape[0], k * k), dtype=grad_out.dtype)
        grad_cols[np.arange(grad_rows.shape[0]), argmax] = grad_rows
        grad_x = col2im(grad_cols, (n * c, 1, h, w), k, s, 0)
        return grad_x.reshape(n, c, h, w)


class AvgPool2d(Module):
    """Average pooling with square non-overlapping-friendly windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        cols, _, _ = im2col(x.reshape(n * c, 1, h, w), k, s, 0)
        self._saved = x.shape
        return cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._pop_saved()
        k, s = self.kernel_size, self.stride
        grad_rows = grad_out.reshape(-1, 1) / (k * k)
        grad_cols = np.broadcast_to(grad_rows, (grad_rows.shape[0], k * k))
        grad_x = col2im(np.ascontiguousarray(grad_cols), (n * c, 1, h, w), k, s, 0)
        return grad_x.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Mean over the spatial axes: (N, C, H, W) -> (N, C)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = shape = self._pop_saved()
        return np.broadcast_to(grad_out[:, :, None, None] / (h * w), shape).copy()


class Flatten(Module):
    """Flatten all axes but the batch axis."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._pop_saved())
