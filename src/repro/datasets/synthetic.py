"""Synthetic stand-ins for CIFAR-10 / CIFAR-100.

No network access is available in this environment, so the natural-image
datasets the paper trains on cannot be downloaded.  This module generates a
*structured* classification task with the properties the paper's phenomena
actually depend on:

* non-trivially learnable — every sample is a class *texture prototype*
  (band-limited random Fourier pattern) corrupted by per-sample nuisances:
  random circular shift, contrast/brightness jitter and additive noise, so
  the classifier must learn shift-tolerant features rather than memorise
  pixels;
* scalable class count (10 for the CIFAR-10 analogue, 100 for CIFAR-100);
* controllable difficulty (noise level / shift range), letting tests run in
  milliseconds and benchmarks at a laptop-friendly size.

The generator is fully seeded: the same seed yields the same dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataset import ArrayDataset

__all__ = ["SyntheticConfig", "SyntheticImageClassification", "make_synthetic_pair"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic image-classification task.

    Attributes
    ----------
    num_classes:
        Number of classes (10 = CIFAR-10 analogue, 100 = CIFAR-100 analogue).
    image_size:
        Square image side (paper scale: 32; tests use 8-16).
    channels:
        Image channels (3 for the CIFAR analogues).
    train_size, test_size:
        Number of samples in each split.
    noise_sigma:
        Std of per-sample additive Gaussian noise.
    max_shift:
        Maximum circular shift (pixels) applied per sample along each axis.
    contrast_jitter:
        Per-sample multiplicative contrast range ``[1-c, 1+c]``.
    brightness_jitter:
        Per-sample additive brightness range ``[-b, b]``.
    bandwidth:
        Number of low-frequency Fourier modes per axis used to synthesise
        class prototypes; higher = finer texture.
    seed:
        Generator seed: fixes prototypes *and* sample nuisances.
    """

    num_classes: int = 10
    image_size: int = 32
    channels: int = 3
    train_size: int = 2000
    test_size: int = 500
    noise_sigma: float = 0.35
    max_shift: int = 2
    contrast_jitter: float = 0.2
    brightness_jitter: float = 0.1
    bandwidth: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.image_size < 4:
            raise ValueError("image_size must be >= 4")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.max_shift < 0 or self.max_shift >= self.image_size:
            raise ValueError("max_shift must be in [0, image_size)")
        if self.bandwidth < 1 or self.bandwidth > self.image_size // 2:
            raise ValueError("bandwidth must be in [1, image_size // 2]")


class SyntheticImageClassification:
    """Factory for a (train, test) pair of :class:`ArrayDataset` splits."""

    def __init__(self, config: SyntheticConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.prototypes = self._make_prototypes()

    def _make_prototypes(self) -> np.ndarray:
        """Band-limited random textures, one per (class, channel).

        Built in Fourier space: random complex coefficients on the lowest
        ``bandwidth`` modes, transformed to a real image, then standardised
        to zero mean / unit std so all classes have equal energy.
        """
        cfg = self.config
        size, bw = cfg.image_size, cfg.bandwidth
        prototypes = np.zeros(
            (cfg.num_classes, cfg.channels, size, size), dtype=np.float64
        )
        for cls in range(cfg.num_classes):
            for ch in range(cfg.channels):
                spectrum = np.zeros((size, size), dtype=np.complex128)
                coeffs = self._rng.normal(size=(bw, bw)) + 1j * self._rng.normal(
                    size=(bw, bw)
                )
                spectrum[:bw, :bw] = coeffs
                image = np.real(np.fft.ifft2(spectrum))
                image -= image.mean()
                std = image.std()
                if std > 0:
                    image /= std
                prototypes[cls, ch] = image
        return prototypes

    def _synthesise_split(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        rng = self._rng
        labels = rng.integers(0, cfg.num_classes, size=n)
        images = self.prototypes[labels]  # fancy indexing already copies

        # Per-sample circular shift (vectorised per shift pair).  A plain
        # range, not ``np.unique``, whose masked-array check loads numpy.ma.
        if cfg.max_shift > 0:
            shifts = range(-cfg.max_shift, cfg.max_shift + 1)
            shifts_y = rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=n)
            shifts_x = rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=n)
            for dy in shifts:
                for dx in shifts:
                    sel = (shifts_y == dy) & (shifts_x == dx)
                    if np.any(sel):
                        images[sel] = np.roll(images[sel], (dy, dx), axis=(2, 3))

        if cfg.contrast_jitter > 0:
            contrast = rng.uniform(
                1 - cfg.contrast_jitter, 1 + cfg.contrast_jitter, size=(n, 1, 1, 1)
            )
            images *= contrast
        if cfg.brightness_jitter > 0:
            brightness = rng.uniform(
                -cfg.brightness_jitter, cfg.brightness_jitter, size=(n, 1, 1, 1)
            )
            images += brightness
        if cfg.noise_sigma > 0:
            images += rng.normal(0.0, cfg.noise_sigma, size=images.shape)
        return images, labels

    def splits(self) -> Tuple[ArrayDataset, ArrayDataset]:
        """Generate the (train, test) datasets."""
        cfg = self.config
        train_x, train_y = self._synthesise_split(cfg.train_size)
        test_x, test_y = self._synthesise_split(cfg.test_size)
        train = ArrayDataset(train_x, train_y, num_classes=cfg.num_classes)
        test = ArrayDataset(test_x, test_y, num_classes=cfg.num_classes)
        return train, test


def make_synthetic_pair(
    num_classes: int = 10,
    image_size: int = 32,
    train_size: int = 2000,
    test_size: int = 500,
    seed: int = 0,
    **kwargs,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Convenience wrapper: build a synthetic (train, test) pair directly."""
    config = SyntheticConfig(
        num_classes=num_classes,
        image_size=image_size,
        train_size=train_size,
        test_size=test_size,
        seed=seed,
        **kwargs,
    )
    return SyntheticImageClassification(config).splits()
