"""Ablation A: progressive-schedule granularity.

DESIGN.md calls out the progressive trainer's level ladder as a design
choice.  This bench sweeps the number of progressive levels (1 level
degenerates to one-shot) at a fixed epoch budget and reports defect
accuracy at the target rate.
"""

import numpy as np

from repro import nn
from repro.core import (
    ProgressiveFaultTolerantTrainer,
    default_progressive_schedule,
    evaluate_accuracy,
    evaluate_defect_accuracy,
)
from repro.experiments.runner import clone_model, make_loaders, pretrain_model


def test_progressive_level_ablation(run_once, bench_scale):
    scale = bench_scale
    target = 0.1
    epoch_budget = scale.ft_epochs

    def run():
        train_loader, test_loader = make_loaders(scale, scale.num_classes_small)
        model, acc_pre = pretrain_model(
            scale, scale.num_classes_small, train_loader, test_loader
        )
        rows = []
        for levels in (1, 2, 4):
            schedule = default_progressive_schedule(target, num_levels=levels)
            ft = clone_model(model)
            opt = nn.SGD(ft.parameters(), lr=scale.ft_lr, momentum=0.9)
            sched = nn.CosineAnnealingLR(opt, t_max=epoch_budget)
            trainer = ProgressiveFaultTolerantTrainer(
                ft, opt, p_sa_schedule=schedule,
                rng=np.random.default_rng(9), scheduler=sched,
            )
            trainer.fit(train_loader, max(1, epoch_budget // levels))
            defect = evaluate_defect_accuracy(
                ft, test_loader, target, num_runs=scale.defect_runs,
                seed=10,
            )
            rows.append(
                (levels, evaluate_accuracy(ft, test_loader),
                 defect.mean_accuracy)
            )
        return acc_pre, rows

    acc_pre, rows = run_once(run)
    print()
    print(f"Ablation A: progressive levels (target rate {target}, "
          f"pretrain {acc_pre:.2f}%)")
    print(f"{'levels':>7} | {'clean %':>8} | {'defect %':>9}")
    for levels, clean, defect in rows:
        print(f"{levels:>7} | {clean:>8.2f} | {defect:>9.2f}")

    # Every configuration must produce a functional fault-tolerant model.
    chance = 100.0 / bench_scale.num_classes_small
    for _, clean, defect in rows:
        assert clean > 2 * chance
        assert defect > chance
