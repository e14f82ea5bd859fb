"""Quickstart: train a model, break it with stuck-at faults, fix it with
stochastic fault-tolerant training.

Runs in under a minute on a laptop::

    python examples/quickstart.py
"""

import numpy as np

from repro import (
    OneShotFaultTolerantTrainer,
    Trainer,
    evaluate_accuracy,
    evaluate_defect_accuracy,
    nn,
    stability_score,
)
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import SimpleCNN


def main():
    # 1. A small classification task (synthetic CIFAR-style images).
    train_set, test_set = make_synthetic_pair(
        num_classes=5, image_size=8, train_size=300, test_size=150,
        seed=7, noise_sigma=0.5, max_shift=1,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 150, shuffle=False)

    # 2. Pretrain a CNN the usual way.
    model = SimpleCNN(in_channels=3, num_classes=5, image_size=8, width=8,
                      rng=np.random.default_rng(0))
    optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9,
                       weight_decay=1e-4)
    scheduler = nn.CosineAnnealingLR(optimizer, t_max=12)
    Trainer(model, optimizer, scheduler=scheduler).fit(train, 12)
    acc_pretrain = evaluate_accuracy(model, test)
    print(f"pretrained accuracy (no faults):        {acc_pretrain:6.2f}%")

    # 3. Deploy it on an unreliable ReRAM device: 5% of weights stuck.
    p_sa = 0.05
    defect = evaluate_defect_accuracy(
        model, test, p_sa, num_runs=10, seed=1
    )
    print(f"same model under {p_sa:.0%} stuck-at faults:   "
          f"{defect.mean_accuracy:6.2f}%   <- the ReRAM stability problem")

    # 4. Stochastic fault-tolerant retraining (one line of setup).
    import copy

    ft_model = copy.deepcopy(model)
    ft_opt = nn.SGD(ft_model.parameters(), lr=0.02, momentum=0.9)
    OneShotFaultTolerantTrainer(
        ft_model, ft_opt, p_sa_target=p_sa, rng=np.random.default_rng(2)
    ).fit(train, 10)

    acc_retrain = evaluate_accuracy(ft_model, test)
    ft_defect = evaluate_defect_accuracy(
        ft_model, test, p_sa, num_runs=10, seed=1
    )
    print(f"fault-tolerant model, no faults:        {acc_retrain:6.2f}%")
    print(f"fault-tolerant model under faults:      "
          f"{ft_defect.mean_accuracy:6.2f}%   <- recovered")

    # 5. The paper's Stability Score quantifies the trade-off.
    ss_before = stability_score(acc_pretrain, acc_pretrain,
                                defect.mean_accuracy)
    ss_after = stability_score(acc_pretrain, acc_retrain,
                               ft_defect.mean_accuracy)
    print(f"stability score: {ss_before:.2f} -> {ss_after:.2f} "
          f"({ss_after / ss_before:.1f}x better)")


if __name__ == "__main__":
    main()
