"""Low-level array operations shared by the layers.

The convolution layers are built on the classic ``im2col``/``col2im``
lowering: a convolution becomes one matrix multiply per block of images
(:func:`repro.nn.conv.conv2d_blocks`), and its backward pass becomes one
whole-batch weight-gradient multiply plus, per block, a data-gradient
multiply and a ``col2im`` scatter.  This keeps every gradient an explicit,
testable numpy expression.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "conv_output_size",
    "image_blocks",
    "im2col",
    "col2im",
    "pad2d",
    "unpad2d",
    "softmax",
    "log_softmax",
    "one_hot",
]


#: Patch bytes per block of images (fits in L2): a convolution forward
#: lowers, and its data gradient and :func:`col2im` scatter, one block at
#: a time.
_BLOCK_BYTES = 1 << 20


def image_blocks(n: int, image_bytes: int) -> List[Tuple[int, int]]:
    """Split ``n`` images into ``(start, stop)`` blocks of near-equal size.

    A block holds at most ``_BLOCK_BYTES`` of per-image data, or one image
    when an image alone is larger.  Sizes differ by at most one image, so
    there is never a short tail (BLAS picks its GEMM kernel by matrix
    size).  An empty batch is one empty block.
    """
    per_block = max(1, _BLOCK_BYTES // max(image_bytes, 1))
    blocks = max(1, -(-n // per_block))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    return list(zip(bounds, bounds[1:]))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing spatial axes of an NCHW tensor."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    padded[:, :, padding:-padding, padding:-padding] = x
    return padded


def unpad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Inverse of :func:`pad2d`."""
    if padding == 0:
        return x
    return x[:, :, padding:-padding, padding:-padding]


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, int]:
    """Lower an NCHW tensor into convolution patches.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kernel * kernel)``: one row per output pixel,
    one column per weight element.  ``cols`` is ``out`` when given (a
    C-contiguous array of that shape and ``x``'s dtype).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_padded = pad2d(x, padding)
    if kernel > 1 and x_padded.strides[3] != x_padded.itemsize:
        # The copy below needs adjacent elements along W.
        x_padded = np.ascontiguousarray(x_padded)

    # Strided view already in row order: (N, out_h, out_w, C, kernel, kernel)
    sn, sc, sh, sw = x_padded.strides
    patches = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, out_h, out_w, c, kernel, kernel),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    )
    cols = out
    if cols is None:
        cols = np.empty((n * out_h * out_w, c * kernel * kernel), dtype=x.dtype)
    # One kernel row is ``kernel`` adjacent input elements: copy it as one
    # opaque item, so the copy loop runs 1/kernel as many iterations.
    row = np.dtype((np.void, kernel * x.itemsize))
    np.copyto(cols.reshape(patches.shape).view(row), patches.view(row))
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scatter-add patch rows back into an NCHW tensor (adjoint of im2col).

    Returns a C-contiguous ``(N, C, H, W)`` array: ``out`` when given.
    Each block of images (:func:`image_blocks`, small enough that the
    kernel*kernel passes over it re-read its patches from cache)
    accumulates in a zeroed, padded NHWC buffer, which has C innermost as
    ``cols`` has; the block's interior is then copied into the result.
    Patches at distinct output pixels may overlap in the input, so each
    kernel offset is a vectorised "+=", in a fixed (ki, kj) order: every
    element sums its contributions from +0.0 in that order, however the
    batch is blocked.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if out is None:
        out = np.empty(x_shape, dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    blocks = image_blocks(n, cols.nbytes // max(n, 1))
    largest = max(stop - start for start, stop in blocks)
    acc = np.empty((largest, h + 2 * padding, w + 2 * padding, c), cols.dtype)
    for start, stop in blocks:
        dst = acc[: stop - start]
        dst.fill(0.0)
        src = patches[start:stop]
        for ki in range(kernel):
            i_max = ki + stride * out_h
            for kj in range(kernel):
                j_max = kj + stride * out_w
                dst[:, ki:i_max:stride, kj:j_max:stride] += src[..., ki, kj]
        interior = dst[:, padding : padding + h, padding : padding + w]
        out[start:stop] = interior.transpose(0, 3, 1, 2)
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` -> one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
