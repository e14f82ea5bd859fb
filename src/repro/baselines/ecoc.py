"""Error-correcting output codes (ECOC) — T. Liu et al., DAC 2019.

The paper notes its stochastic training "is also compatible with prior
methods such as using error correction output code [28]".  ECOC replaces
the one-hot classifier head with redundant binary codewords: the network
emits ``L > log2(C)`` bits, each class owns an L-bit codeword, and
prediction decodes to the nearest codeword in Hamming distance.  Bit
errors caused by faults are then *correctable* as long as fewer than half
the minimum codeword distance of bits flip.

Pieces:

* :func:`generate_codebook` — random balanced codebook maximising the
  minimum pairwise Hamming distance (random search, seeded);
* :class:`ECOCLoss` — per-bit logistic loss against +/-1 code bits, with
  the gradient w.r.t. the logits (drop-in for ``CrossEntropyLoss``);
* :func:`ecoc_predict` — nearest-codeword decoding;
* :func:`evaluate_ecoc_accuracy` — the ECOC counterpart of
  :func:`repro.core.evaluate_accuracy`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..seeding import resolve_rng
from ..datasets.loader import DataLoader

__all__ = [
    "generate_codebook",
    "ECOCLoss",
    "ecoc_predict",
    "evaluate_ecoc_accuracy",
    "minimum_hamming_distance",
]


def minimum_hamming_distance(codebook: np.ndarray) -> int:
    """Smallest pairwise Hamming distance of a +/-1 codebook."""
    n = codebook.shape[0]
    if n < 2:
        return codebook.shape[1]
    best = codebook.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            distance = int(np.sum(codebook[i] != codebook[j]))
            best = min(best, distance)
    return best


def generate_codebook(
    num_classes: int,
    code_length: int,
    rng: Optional[np.random.Generator] = None,
    tries: int = 200,
) -> np.ndarray:
    """Random-search a +/-1 codebook with a large minimum distance.

    Returns an array of shape ``(num_classes, code_length)`` with entries
    in {-1, +1}.  ``code_length`` must allow distinct codewords.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if code_length < int(np.ceil(np.log2(num_classes))):
        raise ValueError(
            f"code_length {code_length} cannot distinguish "
            f"{num_classes} classes"
        )
    rng = resolve_rng(rng)
    best_book: Optional[np.ndarray] = None
    best_distance = -1
    for _ in range(tries):
        book = rng.choice((-1.0, 1.0), size=(num_classes, code_length))
        # Reject books with duplicate codewords outright.
        if len({tuple(row) for row in book}) < num_classes:
            continue
        distance = minimum_hamming_distance(book)
        if distance > best_distance:
            best_distance = distance
            best_book = book
    if best_book is None:
        raise RuntimeError("failed to sample a valid codebook; raise tries")
    return best_book


class ECOCLoss:
    """Logistic loss against +/-1 code bits.

    ``loss = (1/N) * sum_i sum_l log(1 + exp(-b_il * z_il))`` — summed
    over code bits, averaged over samples, so the gradient magnitude is
    comparable to cross entropy's and the same learning rates work.
    Returns ``(loss, grad_wrt_logits)`` like the other losses.
    """

    def __init__(self, codebook: np.ndarray) -> None:
        codebook = np.asarray(codebook, dtype=np.float64)
        if codebook.ndim != 2 or not np.isin(codebook, (-1.0, 1.0)).all():
            raise ValueError("codebook must be a 2-D +/-1 array")
        self.codebook = codebook

    def __call__(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if logits.shape[1] != self.codebook.shape[1]:
            raise ValueError(
                f"logit width {logits.shape[1]} != code length "
                f"{self.codebook.shape[1]}"
            )
        targets = self.codebook[np.asarray(labels)]
        margin = targets * logits
        n = logits.shape[0]
        # log(1 + exp(-m)) computed stably; sum over bits, mean over batch.
        loss = float(np.sum(np.logaddexp(0.0, -margin)) / n)
        sigma = 1.0 / (1.0 + np.exp(margin))  # = sigmoid(-m) = -dL/dm
        grad = -(targets * sigma) / n
        return loss, grad


def ecoc_predict(logits: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Nearest-codeword decoding (maximum codeword correlation)."""
    logits = np.asarray(logits, dtype=np.float64)
    codebook = np.asarray(codebook, dtype=np.float64)
    bits = np.where(logits >= 0, 1.0, -1.0)
    # Hamming distance is monotone in -<bits, codeword>.
    scores = bits @ codebook.T
    return scores.argmax(axis=1)


def evaluate_ecoc_accuracy(
    model: nn.Module, loader: DataLoader, codebook: np.ndarray
) -> float:
    """Top-1 accuracy (%) of an ECOC-headed model.

    Forwards run under :func:`repro.nn.no_grad`; the training mode is
    restored afterwards, also when a forward raises.
    """
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with nn.no_grad():
            for images, labels in loader:
                predictions = ecoc_predict(model(images), codebook)
                correct += int((predictions == labels).sum())
                total += len(labels)
    finally:
        model.train(was_training)
    if total == 0:
        raise ValueError("loader yielded no samples")
    return 100.0 * correct / total
