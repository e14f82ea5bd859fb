"""Tests for the ECOC fault-tolerant head."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import (
    ECOCLoss,
    ecoc_predict,
    evaluate_ecoc_accuracy,
    generate_codebook,
    minimum_hamming_distance,
)
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP
from repro.nn.gradcheck import max_relative_error, numerical_gradient


def test_codebook_shape_and_alphabet(rng):
    book = generate_codebook(5, 12, rng)
    assert book.shape == (5, 12)
    assert np.isin(book, (-1.0, 1.0)).all()


def test_codebook_rows_distinct(rng):
    book = generate_codebook(8, 10, rng)
    assert len({tuple(r) for r in book}) == 8


def test_codebook_min_distance_positive(rng):
    book = generate_codebook(6, 16, rng)
    assert minimum_hamming_distance(book) >= 2


def test_codebook_validation(rng):
    with pytest.raises(ValueError):
        generate_codebook(1, 8, rng)
    with pytest.raises(ValueError):
        generate_codebook(10, 2, rng)  # 2 bits can't code 10 classes


def test_min_distance_known_case():
    book = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    assert minimum_hamming_distance(book) == 2


def test_loss_gradient_numerically(rng):
    book = generate_codebook(4, 8, rng)
    loss_fn = ECOCLoss(book)
    logits = rng.normal(size=(5, 8))
    labels = rng.integers(0, 4, size=5)
    _, grad = loss_fn(logits, labels)
    num = numerical_gradient(lambda z: loss_fn(z, labels)[0], logits.copy())
    assert max_relative_error(grad, num) < 1e-6


def test_loss_zero_for_confident_correct(rng):
    book = generate_codebook(3, 6, rng)
    labels = np.array([0, 1, 2])
    logits = book[labels] * 100.0  # perfectly aligned, huge margin
    loss, _ = ECOCLoss(book)(logits, labels)
    assert loss < 1e-10


def test_loss_validation(rng):
    with pytest.raises(ValueError):
        ECOCLoss(np.array([[0.5, 1.0]]))
    loss_fn = ECOCLoss(generate_codebook(3, 6, rng))
    with pytest.raises(ValueError):
        loss_fn(rng.normal(size=(2, 4)), np.array([0, 1]))


def test_predict_decodes_exact_codewords(rng):
    book = generate_codebook(5, 12, rng)
    labels = rng.integers(0, 5, size=20)
    logits = book[labels] * 3.0
    np.testing.assert_array_equal(ecoc_predict(logits, book), labels)


def test_predict_corrects_few_bit_flips(rng):
    book = generate_codebook(4, 16, rng)
    d_min = minimum_hamming_distance(book)
    correctable = (d_min - 1) // 2
    if correctable < 1:
        pytest.skip("sampled codebook has no correction margin")
    labels = rng.integers(0, 4, size=30)
    logits = book[labels].copy()
    # Flip `correctable` bits per sample.
    for i in range(len(labels)):
        flip = rng.choice(16, size=correctable, replace=False)
        logits[i, flip] *= -1
    np.testing.assert_array_equal(ecoc_predict(logits, book), labels)


def test_end_to_end_ecoc_training(rng):
    """An MLP with an ECOC head learns the toy task."""
    n, num_classes, code_length = 120, 3, 12
    centers = rng.normal(size=(num_classes, 8)) * 3
    labels = rng.integers(0, num_classes, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    loader = DataLoader(
        ArrayDataset(images.reshape(n, 1, 2, 4), labels), 30,
        shuffle=True, seed=0,
    )
    book = generate_codebook(num_classes, code_length, rng)
    model = MLP(8, [16], code_length, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss_fn = ECOCLoss(book)
    for _ in range(15):
        for x, y in loader:
            opt.zero_grad()
            logits = model(x)
            _, grad = loss_fn(logits, y)
            model.backward(grad)
            opt.step()
    acc = evaluate_ecoc_accuracy(model, loader, book)
    assert acc > 80.0


def test_ecoc_accuracy_restores_training_mode_when_a_forward_raises(rng):
    book = generate_codebook(3, 6, rng)
    model = MLP(8, [16], 6, rng=rng)
    model.train()
    # Seven features where the first Linear expects eight.
    loader = DataLoader(
        ArrayDataset(np.zeros((2, 7)), np.zeros(2, dtype=int)), 2
    )
    with pytest.raises(ValueError, match="expected input"):
        evaluate_ecoc_accuracy(model, loader, book)
    assert model.training
