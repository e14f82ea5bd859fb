"""Mini-batch loader."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .dataset import Dataset

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate a dataset in shuffled (or ordered) mini-batches.

    Each iteration yields ``(images, labels)`` with images stacked into one
    float array and labels into an int array.  Shuffling uses the loader's
    own seeded generator so epochs are reproducible.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Mini-batch size.
    shuffle:
        Re-shuffle the sample order every epoch.
    drop_last:
        Drop the final short batch (keeps batch-norm statistics stable for
        tiny datasets).
    seed:
        Seed for the shuffling generator.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                break
            samples = [self.dataset[int(i)] for i in batch_idx]
            images = np.stack([s[0] for s in samples])
            images = images.astype(np.float64, copy=False)  # no 2nd copy
            labels = np.asarray([s[1] for s in samples], dtype=np.int64)
            yield images, labels
