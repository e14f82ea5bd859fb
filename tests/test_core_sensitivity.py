"""Tests for per-layer fault-sensitivity analysis."""

import numpy as np
import pytest

from repro import nn
from repro.core import Trainer, layer_sensitivity
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP
from repro.reram.deploy import crossbar_parameters


@pytest.fixture
def trained(rng):
    n = 90
    centers = rng.normal(size=(3, 8)) * 3
    labels = rng.integers(0, 3, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    loader = DataLoader(
        ArrayDataset(images.reshape(n, 1, 2, 4), labels), 30,
        shuffle=True, seed=0,
    )
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt).fit(loader, 8)
    return model, loader


def test_covers_every_crossbar_tensor(trained):
    model, loader = trained
    results = layer_sensitivity(model, loader, 0.2, num_runs=3, seed=12345)
    expected = {name for name, _ in crossbar_parameters(model)}
    assert {r.name for r in results} == expected


def test_sorted_most_sensitive_first(trained):
    model, loader = trained
    results = layer_sensitivity(model, loader, 0.3, num_runs=3, seed=12345)
    drops = [r.accuracy_drop for r in results]
    assert drops == sorted(drops, reverse=True)


def test_model_left_untouched(trained):
    model, loader = trained
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    layer_sensitivity(model, loader, 0.3, num_runs=2, seed=12345)
    for n, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[n])


def test_zero_rate_zero_drop(trained):
    model, loader = trained
    results = layer_sensitivity(model, loader, 0.0, num_runs=2, seed=12345)
    for r in results:
        assert r.accuracy_drop == pytest.approx(0.0)


def test_reports_weight_counts(trained):
    model, loader = trained
    results = layer_sensitivity(model, loader, 0.1, num_runs=1, seed=12345)
    by_name = {r.name: r for r in results}
    assert by_name["net.layer1.weight"].num_weights == 16 * 8


def test_invalid_runs(trained):
    model, loader = trained
    with pytest.raises(ValueError):
        layer_sensitivity(model, loader, 0.1, num_runs=0, seed=12345)


def test_reports_spread_and_draw_count(trained):
    model, loader = trained
    results = layer_sensitivity(model, loader, 0.2, num_runs=4, seed=12345)
    for r in results:
        assert r.num_runs == 4
        assert r.std_accuracy >= 0.0
        # The spread cannot exceed the full accuracy range.
        assert r.std_accuracy <= 100.0


def test_std_matches_cell_accuracies(trained):
    model, loader = trained
    a = layer_sensitivity(model, loader, 0.2, num_runs=3, seed=21)
    b = layer_sensitivity(model, loader, 0.2, num_runs=3, seed=21)
    assert a == b  # std/num_runs ride the deterministic-seed contract
    assert any(r.std_accuracy > 0.0 for r in a)


def test_zero_rate_zero_std(trained):
    model, loader = trained
    results = layer_sensitivity(model, loader, 0.0, num_runs=3, seed=12345)
    for r in results:
        assert r.std_accuracy == pytest.approx(0.0)
        assert r.num_runs == 3
