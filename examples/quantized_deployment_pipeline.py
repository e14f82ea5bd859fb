"""Scenario: the full edge-deployment pipeline with every non-ideality.

Chains all the hardening and hardware-modelling pieces in one script —
the workflow a system designer would actually run before taping out an
edge product:

    pretrain -> quantisation-aware training (4-bit cells)
             -> stochastic fault-tolerant fine-tuning
             -> evaluate under quantisation + stuck-at faults
             -> evaluate under programming variation and retention drift

    python examples/quantized_deployment_pipeline.py
"""

import copy

import numpy as np

from repro import (
    OneShotFaultTolerantTrainer,
    Trainer,
    evaluate_accuracy,
    evaluate_defect_accuracy,
    nn,
)
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import SimpleCNN
from repro.quantization import (
    QuantizationAwareTrainer,
    QuantizedFaultModel,
    quantize_model_weights,
)
from repro.reram import ConductanceDriftModel, ProgrammingVariationModel

LEVELS = 16  # 4-bit conductance cells
FAULT_RATE = 0.02


def main():
    train_set, test_set = make_synthetic_pair(
        num_classes=5, image_size=8, train_size=400, test_size=200,
        seed=23, noise_sigma=0.5, max_shift=1,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 200, shuffle=False)

    model = SimpleCNN(in_channels=3, num_classes=5, image_size=8, width=12,
                      rng=np.random.default_rng(0))
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    Trainer(model, opt,
            scheduler=nn.CosineAnnealingLR(opt, t_max=12)).fit(train, 12)
    print(f"1. pretrained (fp64):                 "
          f"{evaluate_accuracy(model, test):6.2f}%")

    # Naive deployment: quantise + faults, no hardening at all.
    naive = copy.deepcopy(model)
    quantize_model_weights(naive, LEVELS)
    naive_defect = evaluate_defect_accuracy(
        naive, test, FAULT_RATE, num_runs=10,
        seed=1,
        fault_model=QuantizedFaultModel(levels=LEVELS),
    )
    print(f"2. naive 4-bit deploy @ {FAULT_RATE:.0%} faults:   "
          f"{naive_defect.mean_accuracy:6.2f}%")

    # Hardened pipeline: QAT, then stochastic FT fine-tuning.
    hard = copy.deepcopy(model)
    qat_opt = nn.SGD(hard.parameters(), lr=0.02, momentum=0.9)
    QuantizationAwareTrainer(
        hard, qat_opt, levels=LEVELS, rng=np.random.default_rng(2)
    ).fit(train, 6)
    ft_opt = nn.SGD(hard.parameters(), lr=0.02, momentum=0.9)
    OneShotFaultTolerantTrainer(
        hard, ft_opt, p_sa_target=2 * FAULT_RATE,
        fault_model=QuantizedFaultModel(levels=LEVELS),
        rng=np.random.default_rng(3),
    ).fit(train, 10)
    hard_defect = evaluate_defect_accuracy(
        hard, test, FAULT_RATE, num_runs=10,
        seed=1,
        fault_model=QuantizedFaultModel(levels=LEVELS),
    )
    print(f"3. QAT + FT deploy @ {FAULT_RATE:.0%} faults:      "
          f"{hard_defect.mean_accuracy:6.2f}%   <- hardened")

    # Soft non-idealities on the hardened model.
    variation = evaluate_defect_accuracy(
        hard, test, 0.1, num_runs=10, seed=4,
        fault_model=ProgrammingVariationModel(),
    )
    print(f"4. + programming variation (s=0.1):   "
          f"{variation.mean_accuracy:6.2f}%")
    drift = evaluate_defect_accuracy(
        hard, test, 1e6, num_runs=5, seed=5,
        fault_model=ConductanceDriftModel(nu=0.02),
    )
    print(f"5. + retention drift (t=1e6 s):       "
          f"{drift.mean_accuracy:6.2f}%")

    gain = hard_defect.mean_accuracy - naive_defect.mean_accuracy
    print(f"\nhardening recovered {gain:.1f}pp of deployed accuracy "
          f"at zero hardware cost.")


if __name__ == "__main__":
    main()
