"""Scenario: traffic-sign recognition on a fleet of ReRAM edge devices.

The paper's motivation is mass-produced autonomous edge systems: you ship
*one* trained model to thousands of devices, each with its own random
stuck-at defect pattern, and you cannot afford per-device retraining.

This example simulates that fleet.  A ResNet-8 "sign classifier" is
trained once, then deployed to N simulated devices with i.i.d. defect
maps at a given failure rate.  We report the fleet accuracy distribution
(mean / worst device) for the plain model and for the fault-tolerant one —
the per-device *worst case* is what a safety argument cares about.

    python examples/autonomous_driving_sign_recognition.py
"""

import numpy as np

from repro import (
    ProgressiveFaultTolerantTrainer,
    Trainer,
    default_progressive_schedule,
    evaluate_accuracy,
    nn,
)
from repro.core import simulate_fleet
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import resnet8

NUM_DEVICES = 20
FAILURE_RATE = 0.02  # per-weight stuck-at probability of the product line
NUM_SIGN_CLASSES = 8  # speed limits, stop, yield, ...
REQUIRED_ACCURACY = 70.0  # the product's sign-recognition requirement


def main():
    rng = np.random.default_rng(0)
    train_set, test_set = make_synthetic_pair(
        num_classes=NUM_SIGN_CLASSES, image_size=12, train_size=500,
        test_size=250, seed=3, noise_sigma=0.7, max_shift=2,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 250, shuffle=False)

    print(f"training the sign classifier ({NUM_SIGN_CLASSES} classes)...")
    model = resnet8(num_classes=NUM_SIGN_CLASSES, base_width=12, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    sched = nn.CosineAnnealingLR(opt, t_max=10)
    Trainer(model, opt, scheduler=sched).fit(train, 10)
    clean = evaluate_accuracy(model, test)
    print(f"clean accuracy: {clean:.2f}%\n")

    print(f"deploying to {NUM_DEVICES} devices with "
          f"{FAILURE_RATE:.1%} stuck-at rate each...")
    plain = simulate_fleet(
        model, test, FAILURE_RATE, num_devices=NUM_DEVICES,
        seed=1,
    )

    print("hardening with progressive fault-tolerant training...")
    import copy

    ft = copy.deepcopy(model)
    ft_opt = nn.SGD(ft.parameters(), lr=0.02, momentum=0.9)
    schedule = default_progressive_schedule(2 * FAILURE_RATE, num_levels=3)
    ProgressiveFaultTolerantTrainer(
        ft, ft_opt, p_sa_schedule=schedule, rng=np.random.default_rng(2)
    ).fit(train, 5)
    hardened = simulate_fleet(
        ft, test, FAILURE_RATE, num_devices=NUM_DEVICES,
        seed=1,
    )

    print()
    print(f"{'':<26}{'plain model':>14}{'fault-tolerant':>16}")
    print(f"{'fleet mean accuracy':<26}{plain.mean:>13.2f}%"
          f"{hardened.mean:>15.2f}%")
    print(f"{'fleet worst device':<26}{plain.worst:>13.2f}%"
          f"{hardened.worst:>15.2f}%")
    print(f"{'fleet 5th percentile':<26}{plain.quantile(0.05):>13.2f}%"
          f"{hardened.quantile(0.05):>15.2f}%")
    plain_yield = plain.yield_at(REQUIRED_ACCURACY)
    hard_yield = hardened.yield_at(REQUIRED_ACCURACY)
    print(f"{'yield @ >=70% accuracy':<26}{plain_yield:>13.0%}"
          f"{hard_yield:>15.0%}")
    print()
    print("one training run raises the manufacturing yield of the whole "
          "product line — no per-device retraining.")


if __name__ == "__main__":
    main()
