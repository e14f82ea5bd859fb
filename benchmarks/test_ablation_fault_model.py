"""Ablation C: weight-space vs physical crossbar-cell fault model.

The paper evaluates stuck-at faults directly in weight space.  Our ReRAM
substrate can also inject faults at *cell* granularity (differential-pair
crossbars, quantised conductances) and read back the effective weights.
This bench evaluates the same model under both models at the same rate and
shows they agree qualitatively — validating the paper's weight-space
simplification.

Note on rates: a weight maps to a differential pair (2 cells), so cell
rate p yields a weight-level fault probability of ~2p (either cell can
fault).  We therefore compare weight-space rate 2p against cell rate p.
"""

import numpy as np

from repro.core import evaluate_accuracy, evaluate_defect_accuracy
from repro.experiments.runner import make_loaders, pretrain_model
from repro.reram import ReRAMDeviceModel, deploy_weights


def test_fault_model_ablation(run_once, bench_scale):
    scale = bench_scale
    cell_rate = 0.01
    weight_rate = 2 * cell_rate
    runs = max(3, scale.defect_runs // 2)

    def run():
        train_loader, test_loader = make_loaders(scale, scale.num_classes_small)
        model, acc_pre = pretrain_model(
            scale, scale.num_classes_small, train_loader, test_loader
        )
        # Weight-space model (the paper's).
        ws = evaluate_defect_accuracy(
            model, test_loader, weight_rate, num_runs=runs,
            seed=21,
        )
        # Cell-level model via the crossbar simulator.
        device = ReRAMDeviceModel(g_off=1e-6, g_on=1e-4, levels=256)
        deployed = deploy_weights(model, device=device, tile_size=64)
        rng = np.random.default_rng(22)
        cell_accs = []
        for _ in range(runs):
            deployed.clear_faults()
            deployed.inject_faults(cell_rate, rng)
            deployed.load_effective_weights()
            cell_accs.append(evaluate_accuracy(model, test_loader))
        deployed.restore_pristine()
        return acc_pre, ws.mean_accuracy, float(np.mean(cell_accs))

    acc_pre, ws_acc, cell_acc = run_once(run)
    print()
    print("Ablation C: fault-model fidelity "
          f"(pretrain {acc_pre:.2f}%)")
    print(f"  weight-space model @ rate {weight_rate}: {ws_acc:6.2f}%")
    print(f"  crossbar-cell model @ rate {cell_rate}:  {cell_acc:6.2f}%")

    # Both models must show real degradation...
    assert ws_acc < acc_pre - 2.0
    assert cell_acc < acc_pre - 2.0
    # ...and agree on the qualitative severity (within a broad band --
    # the cell model additionally quantises and clips).
    assert abs(ws_acc - cell_acc) < 35.0
