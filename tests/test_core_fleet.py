"""Tests for fleet simulation."""

import numpy as np
import pytest

from repro import nn
from repro.core import Trainer, simulate_fleet
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP


@pytest.fixture
def setup(rng):
    n = 80
    centers = rng.normal(size=(3, 8)) * 3
    labels = rng.integers(0, 3, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    loader = DataLoader(
        ArrayDataset(images.reshape(n, 1, 2, 4), labels), 40,
        shuffle=True, seed=0,
    )
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt).fit(loader, 6)
    return model, loader


def test_fleet_size(setup):
    model, loader = setup
    report = simulate_fleet(model, loader, 0.1, num_devices=7, seed=12345)
    assert report.num_devices == 7
    assert len(report.accuracies) == 7


def test_fleet_statistics_consistent(setup):
    model, loader = setup
    report = simulate_fleet(model, loader, 0.2, num_devices=10, seed=12345)
    assert report.worst <= report.quantile(0.5) <= report.best
    assert report.worst <= report.mean <= report.best
    assert report.mean == pytest.approx(float(np.mean(report.accuracies)))


def test_fleet_yield_boundaries(setup):
    model, loader = setup
    report = simulate_fleet(model, loader, 0.2, num_devices=10, seed=12345)
    assert report.yield_at(0.0) == 1.0
    assert report.yield_at(100.1) == 0.0
    mid = report.quantile(0.5)
    assert 0.0 < report.yield_at(mid) <= 1.0


def test_fleet_zero_rate_all_identical(setup):
    model, loader = setup
    report = simulate_fleet(model, loader, 0.0, num_devices=5, seed=12345)
    assert report.std == 0.0
    assert report.worst == report.best


def test_fleet_restores_model(setup):
    model, loader = setup
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    simulate_fleet(model, loader, 0.3, num_devices=4, seed=12345)
    for n, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[n])


def test_fleet_deterministic_under_seed(setup):
    model, loader = setup
    a = simulate_fleet(model, loader, 0.1, num_devices=4,
                       seed=3)
    b = simulate_fleet(model, loader, 0.1, num_devices=4,
                       seed=3)
    assert a.accuracies == b.accuracies


def test_fleet_summary_contains_stats(setup):
    model, loader = setup
    report = simulate_fleet(model, loader, 0.1, num_devices=4, seed=12345)
    text = report.summary()
    assert "mean" in text
    assert "worst" in text


def test_fleet_validation(setup):
    model, loader = setup
    with pytest.raises(ValueError):
        simulate_fleet(model, loader, 0.1, num_devices=0, seed=12345)
    report = simulate_fleet(model, loader, 0.1, num_devices=2, seed=12345)
    with pytest.raises(ValueError):
        report.quantile(1.5)
