"""Scenario: a manufacturing sign-off report for one trained model.

Produces the numbers a product team needs before committing a model to a
ReRAM product line: fleet accuracy distribution with confidence
intervals, manufacturing yield at the spec threshold, the effect of
free power-on BatchNorm recalibration, and a statistically sound paired
comparison against the unhardened model.

    python examples/fleet_yield_analysis.py
"""

import copy

import numpy as np

from repro import (
    OneShotFaultTolerantTrainer,
    Trainer,
    evaluate_accuracy,
    nn,
)
from repro.core import FaultInjector, recalibrate_batchnorm, simulate_fleet
from repro.datasets import DataLoader, make_synthetic_pair
from repro.experiments import mean_confidence_interval, paired_comparison
from repro.models import SimpleCNN

DEVICE_RATE = 0.03
SPEC_ACCURACY = 75.0
FLEET = 25


def recalibrated_fleet(model, train, test, rate, num_devices, seed):
    """Fleet accuracies where every device gets a power-on BN refresh."""
    accuracies = []
    for _ in range(num_devices):
        device = copy.deepcopy(model)
        FaultInjector(device,
                      rng=np.random.default_rng(seed + len(accuracies))
                      ).inject(rate)
        recalibrate_batchnorm(device, train, num_batches=4, momentum=0.3)
        accuracies.append(evaluate_accuracy(device, test))
    return accuracies


def main():
    train_set, test_set = make_synthetic_pair(
        num_classes=5, image_size=8, train_size=300, test_size=150,
        seed=41, noise_sigma=0.5, max_shift=1,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 150, shuffle=False)

    model = SimpleCNN(in_channels=3, num_classes=5, image_size=8, width=10,
                      rng=np.random.default_rng(0))
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    Trainer(model, opt,
            scheduler=nn.CosineAnnealingLR(opt, t_max=12)).fit(train, 12)

    hardened = copy.deepcopy(model)
    ft_opt = nn.SGD(hardened.parameters(), lr=0.02, momentum=0.9)
    OneShotFaultTolerantTrainer(
        hardened, ft_opt, p_sa_target=2 * DEVICE_RATE,
        rng=np.random.default_rng(1),
    ).fit(train, 10)

    print(f"sign-off report @ device stuck-at rate {DEVICE_RATE:.1%}, "
          f"spec >= {SPEC_ACCURACY:.0f}%\n")
    rows = {}
    for name, m in (("plain", model), ("hardened (FT)", hardened)):
        fleet = simulate_fleet(m, test, DEVICE_RATE, num_devices=FLEET,
                               seed=2)
        mean, low, high = mean_confidence_interval(fleet.accuracies)
        print(f"{name:<16} mean {mean:6.2f}%  (95% CI {low:6.2f}-{high:6.2f})"
              f"  worst {fleet.worst:6.2f}%  "
              f"yield {fleet.yield_at(SPEC_ACCURACY):5.0%}")
        rows[name] = fleet.accuracies

    comparison = paired_comparison(rows["hardened (FT)"], rows["plain"])
    print(f"\npaired comparison (common devices): hardened - plain = "
          f"{comparison.mean_difference:+.2f}pp "
          f"(95% CI {comparison.ci_low:+.2f}..{comparison.ci_high:+.2f}) "
          f"-> winner: {comparison.winner!r}")

    recal = recalibrated_fleet(hardened, train, test, DEVICE_RATE, 10, seed=7)
    mean, low, high = mean_confidence_interval(recal)
    print(f"\nwith power-on BN recalibration (free, per device): "
          f"mean {mean:.2f}% (95% CI {low:.2f}-{high:.2f})")


if __name__ == "__main__":
    main()
