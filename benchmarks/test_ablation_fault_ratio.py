"""Ablation B: sensitivity to the SA0:SA1 split.

The paper fixes SA0:SA1 = 1.75:9.04 (stuck-on dominates).  This bench
evaluates the same pretrained model under all-SA0, the paper's split, and
all-SA1 faults at equal total rates — showing that stuck-on (SA1) faults,
which pin weights to +/- w_max, are the destructive component, while
stuck-off (SA0) faults act like mild pruning.
"""

from repro.core import evaluate_defect_accuracy
from repro.experiments.runner import make_loaders, pretrain_model
from repro.reram import WeightSpaceFaultModel


def test_fault_ratio_ablation(run_once, bench_scale):
    scale = bench_scale
    rate = 0.05
    ratios = {
        "all SA0 (stuck-off)": (1.0, 0.0),
        "paper 1.75:9.04": (1.75, 9.04),
        "all SA1 (stuck-on)": (0.0, 1.0),
    }

    def run():
        train_loader, test_loader = make_loaders(scale, scale.num_classes_small)
        model, acc_pre = pretrain_model(
            scale, scale.num_classes_small, train_loader, test_loader
        )
        results = {}
        for name, ratio in ratios.items():
            fault_model = WeightSpaceFaultModel(ratio=ratio)
            defect = evaluate_defect_accuracy(
                model, test_loader, rate, num_runs=scale.defect_runs,
                seed=11, fault_model=fault_model,
            )
            results[name] = defect.mean_accuracy
        return acc_pre, results

    acc_pre, results = run_once(run)
    print()
    print(f"Ablation B: SA0:SA1 ratio at rate {rate} "
          f"(pretrain {acc_pre:.2f}%)")
    for name, acc in results.items():
        print(f"  {name:<22} {acc:6.2f}%")

    # Stuck-off faults (weight -> 0) behave like light pruning: mild.
    # Stuck-on faults (weight -> +/- w_max) are catastrophic.
    assert results["all SA0 (stuck-off)"] > results["all SA1 (stuck-on)"]
    # The paper's split sits between the two extremes.
    assert (
        results["all SA1 (stuck-on)"] - 5.0
        <= results["paper 1.75:9.04"]
        <= results["all SA0 (stuck-off)"] + 5.0
    )
