"""Tests for accuracy and defect evaluation."""

import numpy as np
import pytest

from repro import evaluate_accuracy, evaluate_defect_accuracy, nn
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP, resnet8


class ConstantModel(nn.Module):
    """Always predicts class 0 (plus a dummy weight so injectors work)."""

    def __init__(self, num_classes):
        super().__init__()
        self.num_classes = num_classes
        self.weight = nn.Parameter(np.ones((1, 1)))

    def forward(self, x):
        logits = np.zeros((x.shape[0], self.num_classes))
        logits[:, 0] = 1.0
        return logits


def make_loader(labels):
    labels = np.asarray(labels)
    images = np.zeros((len(labels), 1, 2, 2))
    return DataLoader(ArrayDataset(images, labels), 4, shuffle=False)


def test_accuracy_exact():
    loader = make_loader([0, 0, 1, 1])
    assert evaluate_accuracy(ConstantModel(2), loader) == pytest.approx(50.0)


def test_accuracy_all_correct():
    loader = make_loader([0, 0, 0])
    assert evaluate_accuracy(ConstantModel(2), loader) == pytest.approx(100.0)


def test_accuracy_restores_training_mode():
    model = ConstantModel(2)
    model.train()
    evaluate_accuracy(model, make_loader([0, 1]))
    assert model.training
    model.eval()
    evaluate_accuracy(model, make_loader([0, 1]))
    assert not model.training


def test_accuracy_restores_modes_when_a_forward_raises():
    model = resnet8(num_classes=2, base_width=4, rng=np.random.default_rng(0))
    model.train()
    # One channel where the stem conv expects three.
    loader = DataLoader(
        ArrayDataset(np.zeros((2, 1, 8, 8)), np.zeros(2, dtype=int)), 2
    )
    with pytest.raises(ValueError, match="expected input"):
        evaluate_accuracy(model, loader)
    assert model.training
    # Grad mode is back on: a plain forward keeps its backward state.
    model(np.zeros((2, 3, 8, 8)))
    assert model.stem[0]._saved is not None


def test_accuracy_empty_loader_raises():
    loader = DataLoader(
        ArrayDataset(np.zeros((3, 1)), np.zeros(3, dtype=int)),
        4,
        shuffle=False,
        drop_last=True,
    )
    with pytest.raises(ValueError):
        evaluate_accuracy(ConstantModel(2), loader)


def real_setup(rng, n=40):
    images = rng.normal(size=(n, 1, 2, 4))
    labels = rng.integers(0, 3, size=n)
    loader = DataLoader(ArrayDataset(images, labels), 20, shuffle=False)
    model = MLP(8, [8], 3, rng=rng)
    return model, loader


def test_defect_zero_rate_equals_clean(rng):
    model, loader = real_setup(rng)
    clean = evaluate_accuracy(model, loader)
    result = evaluate_defect_accuracy(
        model, loader, 0.0, num_runs=3, seed=12345
    )
    assert result.mean_accuracy == pytest.approx(clean)
    assert result.std_accuracy == 0.0


def test_defect_evaluation_restores_model(rng):
    model, loader = real_setup(rng)
    pristine = {n: p.data.copy() for n, p in model.named_parameters()}
    evaluate_defect_accuracy(model, loader, 0.3, num_runs=3, seed=12345)
    for n, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, pristine[n])


def test_defect_runs_recorded(rng):
    model, loader = real_setup(rng)
    result = evaluate_defect_accuracy(
        model, loader, 0.1, num_runs=5, seed=12345
    )
    assert len(result.run_accuracies) == 5
    assert result.min_accuracy <= result.mean_accuracy <= result.max_accuracy
    assert result.p_sa == 0.1


def test_defect_mean_matches_runs(rng):
    model, loader = real_setup(rng)
    result = evaluate_defect_accuracy(
        model, loader, 0.2, num_runs=4, seed=12345
    )
    assert result.mean_accuracy == pytest.approx(
        float(np.mean(result.run_accuracies))
    )


def test_defect_deterministic_under_seed(rng):
    model, loader = real_setup(rng)
    a = evaluate_defect_accuracy(
        model, loader, 0.1, num_runs=3, seed=7
    )
    b = evaluate_defect_accuracy(
        model, loader, 0.1, num_runs=3, seed=7
    )
    assert a.run_accuracies == b.run_accuracies


def test_defect_high_rate_degrades_accuracy(rng):
    model, loader = real_setup(rng, n=60)
    low = evaluate_defect_accuracy(model, loader, 0.01, num_runs=5, seed=12345)
    high = evaluate_defect_accuracy(model, loader, 0.5, num_runs=5, seed=12345)
    assert high.mean_accuracy <= low.mean_accuracy + 5.0


def test_defect_invalid_runs(rng):
    model, loader = real_setup(rng)
    with pytest.raises(ValueError):
        evaluate_defect_accuracy(model, loader, 0.1, num_runs=0, seed=12345)


def test_defect_seed_provenance_recorded(rng):
    model, loader = real_setup(rng)
    result = evaluate_defect_accuracy(model, loader, 0.1, num_runs=3, seed=11)
    assert result.seed == 11
    assert result.num_runs == 3
    again = evaluate_defect_accuracy(model, loader, 0.1, num_runs=3, seed=11)
    assert again.run_accuracies == result.run_accuracies

