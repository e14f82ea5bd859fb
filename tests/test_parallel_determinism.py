"""The determinism contract: worker count never changes a result.

Each seed-driven Monte Carlo entry point is run serial (workers=0) and
through a real 2-worker process pool; the per-draw accuracies must be
bit-identical, not merely close.  This is the property `docs/PARALLELISM.md`
documents and RL009 protects.
"""

import numpy as np
import pytest

from repro.core import evaluate_defect_accuracy, layer_sensitivity, simulate_fleet
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import MLP
from repro.parallel import WORKERS_ENV


@pytest.fixture(scope="module")
def model():
    return MLP(48, [16], 4, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def loader():
    _, test = make_synthetic_pair(
        num_classes=4, image_size=4, train_size=8, test_size=24,
        seed=0, bandwidth=1, channels=3,
    )
    return DataLoader(test, 24, shuffle=False)


def test_defect_accuracy_identical_across_worker_counts(model, loader):
    runs = [
        evaluate_defect_accuracy(
            model, loader, 0.05, num_runs=6, seed=123, workers=workers
        )
        for workers in (0, 2)
    ]
    for evaluation in runs[1:]:
        assert evaluation.run_accuracies == runs[0].run_accuracies
        assert evaluation.mean_accuracy == runs[0].mean_accuracy
        assert evaluation.seed == 123


def test_defect_accuracy_honours_workers_env(model, loader, monkeypatch):
    serial = evaluate_defect_accuracy(model, loader, 0.05, num_runs=4, seed=9)
    monkeypatch.setenv(WORKERS_ENV, "2")
    from_env = evaluate_defect_accuracy(model, loader, 0.05, num_runs=4, seed=9)
    assert from_env.run_accuracies == serial.run_accuracies


def test_fleet_identical_across_worker_counts(model, loader):
    serial = simulate_fleet(model, loader, 0.05, num_devices=6, seed=42, workers=0)
    pooled = simulate_fleet(model, loader, 0.05, num_devices=6, seed=42, workers=2)
    assert pooled.accuracies == serial.accuracies
    assert pooled.seed == serial.seed == 42


def test_layer_sensitivity_identical_across_worker_counts(model, loader):
    serial = layer_sensitivity(model, loader, 0.1, num_runs=2, seed=5, workers=0)
    pooled = layer_sensitivity(model, loader, 0.1, num_runs=2, seed=5, workers=2)
    assert [s.name for s in pooled] == [s.name for s in serial]
    for a, b in zip(pooled, serial):
        assert a.mean_accuracy == b.mean_accuracy
        assert a.accuracy_drop == b.accuracy_drop


def test_default_seed_is_recorded_and_rematerialisable(model, loader):
    first = evaluate_defect_accuracy(model, loader, 0.05, num_runs=3)
    assert first.seed is not None
    replay = evaluate_defect_accuracy(
        model, loader, 0.05, num_runs=3, seed=first.seed
    )
    assert replay.run_accuracies == first.run_accuracies


def test_repeated_calls_leave_no_state_behind(model, loader):
    """Each entry point, called twice in one process at workers 0 and 2
    (serial, pooled, serial, pooled), returns the same bits every time.
    A task that kept state in module globals would change the second
    serial call, and pool workers forked after it would inherit that."""

    def results(workers):
        evaluation = evaluate_defect_accuracy(
            model, loader, 0.05, num_runs=4, seed=11, workers=workers
        )
        fleet = simulate_fleet(
            model, loader, 0.05, num_devices=4, seed=12, workers=workers
        )
        layers = layer_sensitivity(
            model, loader, 0.1, num_runs=2, seed=13, workers=workers
        )
        return (
            evaluation.run_accuracies,
            fleet.accuracies,
            [(s.name, s.mean_accuracy, s.accuracy_drop) for s in layers],
        )

    first = results(0)
    for workers in (2, 0, 2):
        assert results(workers) == first
