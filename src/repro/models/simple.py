"""Small reference models for fast experiments and tests."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..nn import Sequential
from ..seeding import resolve_rng

__all__ = ["MLP", "SimpleCNN"]


class MLP(nn.Module):
    """Fully connected classifier over flattened inputs.

    Parameters
    ----------
    in_features:
        Flattened input width.
    hidden:
        Hidden-layer widths (may be empty for a linear probe).
    num_classes:
        Output width.
    batch_norm:
        Insert BatchNorm1d after each hidden linear layer.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        num_classes: int,
        batch_norm: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        layers = [nn.Flatten()]
        width = in_features
        for h in hidden:
            layers.append(nn.Linear(width, h, rng=rng))
            if batch_norm:
                layers.append(nn.BatchNorm1d(h))
            layers.append(nn.ReLU())
            width = h
        layers.append(nn.Linear(width, num_classes, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)


class SimpleCNN(nn.Module):
    """Two conv stages + linear head; the fast CNN used by unit tests.

    Shape contract: input ``(N, in_channels, S, S)`` with ``S`` divisible
    by 4 (two 2x2 poolings).
    """

    def __init__(
        self,
        in_channels: int = 3,
        num_classes: int = 10,
        image_size: int = 16,
        width: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4")
        rng = resolve_rng(rng)
        self.features = Sequential(
            nn.Conv2d(in_channels, width, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(width),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(width, width * 2, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(width * 2),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
        )
        flat = width * 2 * (image_size // 4) ** 2
        self.classifier = nn.Linear(flat, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.features.backward(self.classifier.backward(grad_out))
