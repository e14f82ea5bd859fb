"""2-D convolution layer via im2col lowering, one block of images at a time."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..seeding import resolve_rng
from . import init
from .functional import col2im, conv_output_size, im2col, image_blocks, unpad2d
from .module import Module, Parameter

__all__ = ["Conv2d", "conv2d_blocks"]


def conv2d_blocks(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out_channels: int,
    matmul: Callable[[np.ndarray, np.ndarray], None],
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Convolve NCHW ``x`` by lowering one block of images at a time.

    The batch splits into near-equal blocks
    (:func:`~repro.nn.functional.image_blocks`) whose im2col patches fit
    the L2-sized budget :func:`col2im` also uses, so no whole-batch patch
    matrix is ever built.  One zero-bordered padded buffer and one patch
    buffer, each sized for the largest block, serve every block.  For
    each block, ``matmul(cols, rows)`` writes the product of the block's
    patches (one row per output pixel) and the weights into ``rows``, the
    block's rows of one ``(N * out_h * out_w, out_channels)`` buffer;
    ``bias`` is added there in place.  Returns that buffer as an ``(N,
    out_channels, out_h, out_w)`` view (NHWC memory).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    pixels = out_h * out_w
    dtype = np.result_type(x.dtype, np.float64)
    rows = np.empty((n * pixels, out_channels), dtype)
    out = rows.reshape(n, out_h, out_w, out_channels)
    blocks = image_blocks(n, pixels * c * kernel * kernel * x.itemsize)
    largest = max(stop - start for start, stop in blocks)
    cols = np.empty((largest * pixels, c * kernel * kernel), x.dtype)
    if padding:
        # Only the interior is written below: the border stays zero.
        padded = np.zeros((largest, c, h + 2 * padding, w + 2 * padding), x.dtype)
    for start, stop in blocks:
        block = x[start:stop]
        if padding:
            block = padded[: stop - start]
            unpad2d(block, padding)[...] = x[start:stop]
        block_cols = cols[: (stop - start) * pixels]
        im2col(block, kernel, stride, 0, block_cols)
        block_rows = rows[start * pixels : stop * pixels]
        matmul(block_cols, block_rows)
        if bias is not None:
            block_rows += bias
    return out.transpose(0, 3, 1, 2)


class Conv2d(Module):
    """2-D convolution over NCHW tensors.

    Only square kernels are supported — every network in the paper
    (CIFAR-style ResNets) uses 3x3 and 1x1 kernels.

    ``forward`` runs one GEMM per block of images (:func:`conv2d_blocks`),
    so it never holds the whole batch's im2col patches, and returns NHWC
    memory behind an NCHW view.  ``backward`` rebuilds the patches from the
    saved input for one whole-batch weight-gradient GEMM: splitting its
    reduction over pixels would change bits.  The data gradient then runs
    per block of images, a GEMM into the spent patch buffer and a
    :func:`col2im` scatter, so no whole-batch patch gradient exists; it is
    returned as C-contiguous NCHW memory.  ``grad_out`` in NHWC memory (as
    :class:`~repro.nn.BatchNorm2d` returns it) is used as a view.

    On every conv of the model zoo the blocked results equal the
    whole-batch GEMM bit for bit.  In general they agree to
    ``1e-12 * max|out|``: BLAS picks its GEMM kernel by matrix size and
    CPU model, so a block's rows may round differently in the last bits.

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
        weight_t = self.weight.data.reshape(self.out_channels, -1).T
        out = conv2d_blocks(
            x,
            self.kernel_size,
            self.stride,
            self.padding,
            self.out_channels,
            lambda cols, rows: np.matmul(cols, weight_t, out=rows),
            None if self.bias is None else self.bias.data,
        )
        # The input, not its k*k-times larger patches: backward rebuilds them.
        self._saved = x
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._pop_saved()
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, s, p)
        pixels = out_h * out_w
        # (N, C_out, H, W) -> rows matching the im2col layout; a view when
        # grad_out is NHWC memory.
        grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(
            n * pixels, self.out_channels
        )
        self.weight.grad += (grad_rows.T @ cols).reshape(self.weight.shape)
        if self.bias is not None:
            self.bias.grad += grad_rows.sum(axis=0)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        dtype = np.result_type(grad_rows, weight_mat)
        if cols.dtype != dtype:
            cols = np.empty(cols.shape, dtype)
        grad_x = np.empty(x.shape, dtype)
        # The patches are spent: each block's patch gradients go into the
        # leading rows of their buffer and are scattered from cache.
        for start, stop in image_blocks(n, pixels * c * k * k * cols.itemsize):
            block_cols = cols[: (stop - start) * pixels]
            np.matmul(grad_rows[start * pixels : stop * pixels], weight_mat,
                      out=block_cols)
            col2im(block_cols, (stop - start, c, h, w), k, s, p, grad_x[start:stop])
        return grad_x
