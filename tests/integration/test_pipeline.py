"""Integration tests: the full paper pipeline at CI scale.

These train small real models on the synthetic task and verify the
*qualitative* claims of the paper end to end.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    OneShotFaultTolerantTrainer,
    ProgressiveFaultTolerantTrainer,
    Trainer,
    evaluate_accuracy,
    evaluate_defect_accuracy,
    stability_score,
)
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import SimpleCNN
from repro.pruning import magnitude_prune, model_sparsity


@pytest.fixture(scope="module")
def task():
    train_set, test_set = make_synthetic_pair(
        num_classes=5,
        image_size=8,
        train_size=300,
        test_size=150,
        seed=7,
        noise_sigma=0.5,
        max_shift=1,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 150, shuffle=False)
    return train, test


@pytest.fixture(scope="module")
def pretrained(task):
    train, test = task
    model = SimpleCNN(
        in_channels=3, num_classes=5, image_size=8, width=8,
        rng=np.random.default_rng(0),
    )
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    sched = nn.CosineAnnealingLR(opt, t_max=12)
    Trainer(model, opt, scheduler=sched).fit(train, 12)
    return model


def test_pretraining_learns_task(pretrained, task):
    _, test = task
    acc = evaluate_accuracy(pretrained, test)
    assert acc > 70.0  # chance is 20%


def test_baseline_collapses_under_faults(pretrained, task):
    _, test = task
    clean = evaluate_accuracy(pretrained, test)
    defect = evaluate_defect_accuracy(
        pretrained, test, 0.1, num_runs=6, seed=1
    )
    assert defect.mean_accuracy < clean - 15.0


def test_fault_tolerant_training_improves_defect_accuracy(pretrained, task):
    """The paper's headline claim, end to end."""
    import copy

    train, test = task
    ft = copy.deepcopy(pretrained)
    opt = nn.SGD(ft.parameters(), lr=0.02, momentum=0.9)
    OneShotFaultTolerantTrainer(
        ft, opt, p_sa_target=0.1, rng=np.random.default_rng(2)
    ).fit(train, 10)

    base_defect = evaluate_defect_accuracy(
        pretrained, test, 0.1, num_runs=6, seed=3
    )
    ft_defect = evaluate_defect_accuracy(
        ft, test, 0.1, num_runs=6, seed=3
    )
    assert ft_defect.mean_accuracy > base_defect.mean_accuracy + 5.0

    # And the Stability Score reflects the improvement.
    acc_pre = evaluate_accuracy(pretrained, test)
    ss_base = stability_score(acc_pre, acc_pre, base_defect.mean_accuracy)
    ss_ft = stability_score(
        acc_pre, evaluate_accuracy(ft, test), ft_defect.mean_accuracy
    )
    assert ss_ft > ss_base


def test_progressive_training_runs_full_schedule(pretrained, task):
    import copy

    train, test = task
    ft = copy.deepcopy(pretrained)
    opt = nn.SGD(ft.parameters(), lr=0.02, momentum=0.9)
    trainer = ProgressiveFaultTolerantTrainer(
        ft, opt, p_sa_schedule=[0.02, 0.05, 0.1], rng=np.random.default_rng(4)
    )
    history = trainer.fit(train, 2)
    assert history.num_epochs == 6
    assert history.epoch_p_sa[0] == 0.02
    assert history.epoch_p_sa[-1] == 0.1
    # Model remains functional.
    assert evaluate_accuracy(ft, test) > 50.0


def test_pruned_model_is_more_fragile(pretrained, task):
    """Figure 2's claim: sparsity reduces fault tolerance."""
    import copy

    train, test = task
    pruned = copy.deepcopy(pretrained)
    masks = magnitude_prune(pruned, 0.7)
    from repro.pruning import finetune_pruned

    finetune_pruned(pruned, masks, train, epochs=6, lr=0.02)
    assert model_sparsity(pruned) >= 0.65

    rate = 0.05
    dense_defect = evaluate_defect_accuracy(
        pretrained, test, rate, num_runs=8, seed=5
    )
    pruned_defect = evaluate_defect_accuracy(
        pruned, test, rate, num_runs=8, seed=5
    )
    # Compare *relative* drops so different clean accuracies don't confound.
    dense_clean = evaluate_accuracy(pretrained, test)
    pruned_clean = evaluate_accuracy(pruned, test)
    dense_drop = dense_clean - dense_defect.mean_accuracy
    pruned_drop = pruned_clean - pruned_defect.mean_accuracy
    assert pruned_drop > dense_drop - 3.0


def test_defect_evaluation_never_corrupts_model(pretrained, task):
    _, test = task
    before = {n: p.data.copy() for n, p in pretrained.named_parameters()}
    evaluate_defect_accuracy(
        pretrained, test, 0.2, num_runs=3, seed=6
    )
    for n, p in pretrained.named_parameters():
        np.testing.assert_array_equal(p.data, before[n])
