"""Composition experiment: stochastic FT training + ECOC head.

The paper claims its method "is also compatible with prior methods such as
using error correction output code [28]".  This bench quantifies that: it
trains (a) a plain softmax model, (b) an ECOC-headed model, (c) an
ECOC-headed model hardened with one-shot stochastic fault-tolerant
training, and compares defect accuracy.  Expected shape: ECOC alone helps,
FT alone helps, and the composition is at least as good as ECOC alone.
"""

import numpy as np

from repro import nn
from repro.baselines import (
    ECOCLoss,
    evaluate_ecoc_accuracy,
    generate_codebook,
)
from repro.core import (
    FaultInjector,
    OneShotFaultTolerantTrainer,
    Trainer,
    evaluate_accuracy,
    evaluate_defect_accuracy,
)
from repro.experiments.runner import build_backbone, make_loaders

RATE = 0.05
CODE_LENGTH_FACTOR = 3  # bits per class


def ecoc_defect_accuracy(model, loader, codebook, rate, runs, seed):
    injector = FaultInjector(model, rng=np.random.default_rng(seed))
    accs = []
    for _ in range(runs):
        with injector.faults(rate):
            accs.append(evaluate_ecoc_accuracy(model, loader, codebook))
    return float(np.mean(accs))


def test_ecoc_composition(run_once, bench_scale):
    scale = bench_scale
    num_classes = scale.num_classes_small
    code_length = CODE_LENGTH_FACTOR * num_classes
    runs = scale.defect_runs

    def run():
        train_loader, test_loader = make_loaders(scale, num_classes)
        rng = np.random.default_rng(41)
        book = generate_codebook(num_classes, code_length, rng)

        # (a) plain softmax model.
        softmax_model = build_backbone(scale, num_classes, rng)
        opt = nn.SGD(softmax_model.parameters(), lr=scale.lr, momentum=0.9,
                     weight_decay=scale.weight_decay)
        sched = nn.CosineAnnealingLR(opt, t_max=scale.pretrain_epochs)
        Trainer(softmax_model, opt, scheduler=sched).fit(
            train_loader, scale.pretrain_epochs
        )
        plain_clean = evaluate_accuracy(softmax_model, test_loader)
        plain_defect = evaluate_defect_accuracy(
            softmax_model, test_loader, RATE, num_runs=runs,
            seed=42,
        ).mean_accuracy

        # (b) ECOC-headed model (same backbone, wider output).
        ecoc_model = build_backbone(scale, code_length, rng)
        loss_fn = ECOCLoss(book)
        opt = nn.SGD(ecoc_model.parameters(), lr=scale.lr, momentum=0.9,
                     weight_decay=scale.weight_decay)
        sched = nn.CosineAnnealingLR(opt, t_max=scale.pretrain_epochs)
        Trainer(ecoc_model, opt, loss_fn=loss_fn, scheduler=sched).fit(
            train_loader, scale.pretrain_epochs
        )
        ecoc_clean = evaluate_ecoc_accuracy(ecoc_model, test_loader, book)
        ecoc_defect = ecoc_defect_accuracy(
            ecoc_model, test_loader, book, RATE, runs, seed=42
        )

        # (c) ECOC + stochastic fault-tolerant training.
        import copy

        combo = copy.deepcopy(ecoc_model)
        opt = nn.SGD(combo.parameters(), lr=scale.ft_lr, momentum=0.9)
        sched = nn.CosineAnnealingLR(opt, t_max=scale.ft_epochs)
        OneShotFaultTolerantTrainer(
            combo, opt, p_sa_target=RATE, loss_fn=loss_fn,
            rng=np.random.default_rng(43), scheduler=sched,
        ).fit(train_loader, scale.ft_epochs)
        combo_clean = evaluate_ecoc_accuracy(combo, test_loader, book)
        combo_defect = ecoc_defect_accuracy(
            combo, test_loader, book, RATE, runs, seed=42
        )
        return {
            "softmax": (plain_clean, plain_defect),
            "ECOC": (ecoc_clean, ecoc_defect),
            "ECOC + stochastic FT": (combo_clean, combo_defect),
        }

    results = run_once(run)
    print()
    print(f"ECOC composition at rate {RATE}:")
    print(f"{'model':<24} {'clean %':>8} {'defect %':>9}")
    for name, (clean, defect) in results.items():
        print(f"{name:<24} {clean:>8.2f} {defect:>9.2f}")

    plain = results["softmax"]
    ecoc = results["ECOC"]
    combo = results["ECOC + stochastic FT"]
    # All three must learn the task.
    chance = 100.0 / bench_scale.num_classes_small
    for clean, _ in results.values():
        assert clean > 2 * chance
    if bench_scale.name == "ci":
        return  # the ci smoke run only checks mechanics, not the claims
    # The composition improves on plain ECOC under faults (the paper's
    # compatibility claim) and on the unprotected softmax model.
    assert combo[1] > ecoc[1] - 2.0
    assert combo[1] > plain[1]
