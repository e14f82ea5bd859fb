"""Tests for the training loops (Algorithm 1)."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    OneShotFaultTolerantTrainer,
    ProgressiveFaultTolerantTrainer,
    Trainer,
    default_progressive_schedule,
)
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP


def learnable_task(rng, n=120, num_classes=3):
    """A linearly separable task an MLP learns in a few epochs."""
    centers = rng.normal(size=(num_classes, 8)) * 3
    labels = rng.integers(0, num_classes, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    dataset = ArrayDataset(images.reshape(n, 1, 2, 4), labels)
    return DataLoader(dataset, 30, shuffle=True, seed=0)


def make_trainer(rng, loader, cls=Trainer, **kwargs):
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    return model, cls(model, opt, **kwargs)


def test_trainer_loss_decreases(rng):
    loader = learnable_task(rng)
    model, trainer = make_trainer(rng, loader)
    history = trainer.fit(loader, 8)
    assert history.num_epochs == 8
    assert history.epoch_losses[-1] < history.epoch_losses[0]
    assert history.epoch_train_accuracy[-1] > 80.0


def test_trainer_zero_epochs(rng):
    loader = learnable_task(rng)
    _, trainer = make_trainer(rng, loader)
    history = trainer.fit(loader, 0)
    assert history.num_epochs == 0
    assert history.final_val_accuracy is None


def test_trainer_negative_epochs_raises(rng):
    loader = learnable_task(rng)
    _, trainer = make_trainer(rng, loader)
    with pytest.raises(ValueError):
        trainer.fit(loader, -1)


def test_trainer_records_lr_schedule(rng):
    loader = learnable_task(rng)
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    sched = nn.CosineAnnealingLR(opt, t_max=4)
    trainer = Trainer(model, opt, scheduler=sched)
    history = trainer.fit(loader, 4)
    assert history.epoch_lr[0] == pytest.approx(0.1)
    assert history.epoch_lr[-1] < 0.1


def test_trainer_val_loader_tracked(rng):
    loader = learnable_task(rng)
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    trainer = Trainer(model, opt, val_loader=loader)
    history = trainer.fit(loader, 3)
    assert len(history.epoch_val_accuracy) == 3
    assert history.final_val_accuracy == history.epoch_val_accuracy[-1]


def test_trainer_epoch_end_hook(rng):
    loader = learnable_task(rng)
    seen = []
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    trainer = Trainer(model, opt, on_epoch_end=lambda e, h: seen.append(e))
    trainer.fit(loader, 3)
    assert seen == [0, 1, 2]


def test_standard_trainer_p_sa_is_zero(rng):
    loader = learnable_task(rng)
    _, trainer = make_trainer(rng, loader)
    history = trainer.fit(loader, 2)
    assert history.epoch_p_sa == [0.0, 0.0]


def test_history_records_epoch_wall_time(rng):
    loader = learnable_task(rng)
    _, trainer = make_trainer(rng, loader)
    history = trainer.fit(loader, 3)
    assert len(history.epoch_seconds) == 3
    assert all(seconds > 0.0 for seconds in history.epoch_seconds)
    assert history.total_seconds == pytest.approx(sum(history.epoch_seconds))


def test_history_total_seconds_empty():
    from repro.core import TrainingHistory

    assert TrainingHistory().total_seconds == 0.0


def test_progressive_history_accumulates_epoch_seconds(rng):
    loader = learnable_task(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.05)
    trainer = ProgressiveFaultTolerantTrainer(
        model, opt, p_sa_schedule=[0.01, 0.1], rng=rng
    )
    history = trainer.fit(loader, 2)
    # epoch_seconds covers every epoch of every level, like the other lists.
    assert len(history.epoch_seconds) == history.num_epochs == 4
    assert history.total_seconds > 0.0


# -- One-shot fault-tolerant training --------------------------------------------


def test_one_shot_trains_and_records_rate(rng):
    loader = learnable_task(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.02, momentum=0.9)
    trainer = OneShotFaultTolerantTrainer(
        model, opt, p_sa_target=0.05, rng=rng
    )
    history = trainer.fit(loader, 10)
    assert history.epoch_p_sa == [0.05] * 10
    # Loss is noisy under injection; compare epoch medians front vs back.
    assert np.median(history.epoch_losses[-3:]) < np.median(
        history.epoch_losses[:3]
    )


def test_one_shot_restores_pristine_after_each_step(rng):
    """After fit, the weights must not contain pinned fault values."""
    loader = learnable_task(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.01)
    trainer = OneShotFaultTolerantTrainer(model, opt, p_sa_target=0.3, rng=rng)
    trainer.fit(loader, 2)
    w = model.net.layer1.weight.data
    w_max = np.max(np.abs(w))
    # With faults *left* injected, ~27% of weights would equal +/- w_max.
    pinned_fraction = np.mean(np.isclose(np.abs(w), w_max))
    assert pinned_fraction < 0.05


def test_one_shot_invalid_rate(rng):
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    with pytest.raises(ValueError):
        OneShotFaultTolerantTrainer(model, opt, p_sa_target=1.5, rng=rng)


def test_one_shot_improves_robustness(rng):
    """The headline claim at unit scale: FT training beats plain training
    under faults."""
    from repro.core import evaluate_defect_accuracy

    loader = learnable_task(rng, n=150)
    baseline = MLP(8, [16], 3, rng=np.random.default_rng(1))
    opt_b = nn.SGD(baseline.parameters(), lr=0.1, momentum=0.9)
    Trainer(baseline, opt_b).fit(loader, 10)

    ft = MLP(8, [16], 3, rng=np.random.default_rng(1))
    opt_f = nn.SGD(ft.parameters(), lr=0.1, momentum=0.9)
    OneShotFaultTolerantTrainer(
        ft, opt_f, p_sa_target=0.1, rng=np.random.default_rng(2)
    ).fit(loader, 10)

    base_defect = evaluate_defect_accuracy(
        baseline, loader, 0.1, num_runs=10, seed=3
    )
    ft_defect = evaluate_defect_accuracy(ft, loader, 0.1, num_runs=10, seed=3)
    assert ft_defect.mean_accuracy > base_defect.mean_accuracy


# -- Progressive fault-tolerant training --------------------------------------------


def test_default_progressive_schedule_ascending():
    schedule = default_progressive_schedule(0.1, num_levels=4)
    assert len(schedule) == 4
    assert schedule == sorted(schedule)
    assert schedule[-1] == pytest.approx(0.1)
    assert schedule[0] == pytest.approx(0.01)


def test_default_progressive_schedule_single_level():
    assert default_progressive_schedule(0.05, num_levels=1) == [0.05]


def test_default_progressive_schedule_validation():
    with pytest.raises(ValueError):
        default_progressive_schedule(0.0)
    with pytest.raises(ValueError):
        default_progressive_schedule(0.1, num_levels=0)


def test_progressive_visits_all_levels(rng):
    loader = learnable_task(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.05)
    trainer = ProgressiveFaultTolerantTrainer(
        model, opt, p_sa_schedule=[0.01, 0.05, 0.1], rng=rng
    )
    history = trainer.fit(loader, 2)
    assert history.epoch_p_sa == [0.01, 0.01, 0.05, 0.05, 0.1, 0.1]
    assert history.num_epochs == 6


def test_progressive_requires_ascending_schedule(rng):
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    with pytest.raises(ValueError):
        ProgressiveFaultTolerantTrainer(
            model, opt, p_sa_schedule=[0.1, 0.05], rng=rng
        )


def test_progressive_rejects_empty_or_invalid(rng):
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    with pytest.raises(ValueError):
        ProgressiveFaultTolerantTrainer(model, opt, p_sa_schedule=[], rng=rng)
    with pytest.raises(ValueError):
        ProgressiveFaultTolerantTrainer(
            model, opt, p_sa_schedule=[0.5, 2.0], rng=rng
        )


def test_progressive_target_is_last_level(rng):
    model = MLP(8, [8], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    trainer = ProgressiveFaultTolerantTrainer(
        model, opt, p_sa_schedule=[0.01, 0.2], rng=rng
    )
    assert trainer.p_sa_target == 0.2
