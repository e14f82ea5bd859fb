"""Elementwise activation layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..seeding import resolve_rng
from .module import Module

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Identity", "Dropout"]

#: Dropout's saved state after an identity forward (eval mode or ``p == 0``).
_IDENTITY = "identity"


def _axis_order(a: np.ndarray) -> list:
    """``a``'s axes from the largest stride to the smallest, ties in C order."""
    return sorted(range(a.ndim), key=lambda axis: -abs(a.strides[axis]))


def _in_layout_of(mask: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``mask``, copied into ``like``'s memory layout if not already in it.

    An elementwise op over two layouts walks one of them with short
    strided loops; a bool copy first costs far less than that.
    """
    if _axis_order(mask) == _axis_order(like):
        return mask
    copy = np.empty_like(like, dtype=mask.dtype)
    copy[...] = mask
    return copy


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = mask = x > 0
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * _in_layout_of(self._pop_saved(), grad_out)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = mask = x > 0
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x = np.multiply(self.negative_slope, grad_out)
        np.copyto(grad_x, grad_out, where=_in_layout_of(self._pop_saved(), grad_out))
        return grad_x


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = out = np.tanh(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._pop_saved()
        return grad_out * (1.0 - out**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = out = 1.0 / (1.0 + np.exp(-x))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._pop_saved()
        return grad_out * out * (1.0 - out)


class Identity(Module):
    """Pass-through layer (used for absent residual downsampling)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Dropout(Module):
    """Inverted dropout: active in train mode, identity in eval mode.

    The mask generator is owned by the layer so behaviour is reproducible
    when a seeded ``rng`` is supplied.
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = resolve_rng(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            # Recorded, so a backward without a forward still raises.
            self._saved = _IDENTITY
            return x
        keep = 1.0 - self.p
        self._saved = mask = (self.rng.random(x.shape) < keep) / keep
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._pop_saved()
        if mask is _IDENTITY:
            return grad_out
        return grad_out * mask
