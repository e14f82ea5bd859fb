"""Scenario: compress for the edge, then protect against defects.

Edge deployments prune aggressively to fit the crossbar budget — but the
paper shows sparsity *reduces* fault tolerance (Figure 2), and that
stochastic fault-tolerant training wins most of it back (Table II).

This example walks the full pipeline on one model:

    dense training -> ADMM pruning (70%) -> fault-tolerant fine-tuning

and prints the defect accuracy and Stability Score after each stage.

    python examples/prune_then_protect.py
"""

import copy

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
from repro.pruning import ADMMConfig, ADMMPruner, model_sparsity

TEST_RATE = 0.02
SPARSITY = 0.7


def report(stage, model, test, acc_pretrain, rng_seed):
    clean = evaluate_accuracy(model, test)
    defect = evaluate_defect_accuracy(
        model, test, TEST_RATE, num_runs=10,
        seed=rng_seed,
    )
    ss = stability_score(acc_pretrain, clean, defect.mean_accuracy)
    print(f"{stage:<34} clean {clean:6.2f}%   "
          f"defect@{TEST_RATE:g} {defect.mean_accuracy:6.2f}%   SS {ss:6.2f}")
    return defect.mean_accuracy


def main():
    train_set, test_set = make_synthetic_pair(
        num_classes=5, image_size=8, train_size=400, test_size=200,
        seed=11, noise_sigma=0.5, max_shift=1,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 200, shuffle=False)

    model = SimpleCNN(in_channels=3, num_classes=5, image_size=8, width=12,
                      rng=np.random.default_rng(0))
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    Trainer(model, opt,
            scheduler=nn.CosineAnnealingLR(opt, t_max=12)).fit(train, 12)
    acc_pretrain = evaluate_accuracy(model, test)

    print(f"pretrained dense model: {acc_pretrain:.2f}% "
          f"({model.num_parameters()} parameters)\n")
    dense_defect = report("dense, no protection", model, test,
                          acc_pretrain, 1)

    # ADMM pruning to 70% sparsity.
    pruned = copy.deepcopy(model)
    config = ADMMConfig(sparsity=SPARSITY, admm_rounds=2, epochs_per_round=3,
                        finetune_epochs=5, lr=0.02, finetune_lr=0.02)
    ADMMPruner(pruned, config).run(train)
    print(f"\nADMM pruned to {model_sparsity(pruned):.0%} sparsity")
    pruned_defect = report("pruned, no protection", pruned, test,
                           acc_pretrain, 1)

    # Fault-tolerant fine-tuning of the pruned model (mask preserved by
    # re-pruning nothing: FT training perturbs weights but pruned zeros
    # get gradients too, so re-apply masks through a masked optimiser).
    protected = copy.deepcopy(pruned)
    ft_opt = nn.SGD(protected.parameters(), lr=0.02, momentum=0.9)
    from repro.pruning import magnitude_mask, prunable_parameters

    for name, param in prunable_parameters(protected):
        mask = (param.data != 0).astype(float)
        ft_opt.attach_mask(param, mask)
    OneShotFaultTolerantTrainer(
        protected, ft_opt, p_sa_target=2 * TEST_RATE,
        rng=np.random.default_rng(2),
    ).fit(train, 10)
    print(f"\nfault-tolerant fine-tuning done "
          f"(sparsity kept: {model_sparsity(protected):.0%})")
    protected_defect = report("pruned + fault-tolerant", protected, test,
                              acc_pretrain, 1)

    print()
    recovered = protected_defect - pruned_defect
    lost = dense_defect - pruned_defect
    if lost > 0:
        print(f"pruning cost {lost:.1f}pp of defect accuracy; "
              f"FT training recovered {recovered:.1f}pp of it.")
    else:
        print(f"FT training improved the pruned model's defect accuracy "
              f"by {recovered:.1f}pp.")


if __name__ == "__main__":
    main()
