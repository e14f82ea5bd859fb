"""Ablation D: which layers dominate the stability problem?

Injects faults into one crossbar-resident tensor at a time (all others
pristine) and ranks tensors by accuracy drop.  Expected shape: the
classifier head and early convs are disproportionately sensitive relative
to their weight counts — the usual finding in the ReRAM-reliability
literature, and the reason column-redundancy baselines target specific
layers.
"""

from repro.core import layer_sensitivity
from repro.experiments.runner import make_loaders, pretrain_model
from repro.experiments.tables import render_sensitivity


def test_layer_sensitivity_ablation(run_once, bench_scale):
    scale = bench_scale
    rate = 0.05

    def run():
        train_loader, test_loader = make_loaders(scale, scale.num_classes_small)
        model, acc_pre = pretrain_model(
            scale, scale.num_classes_small, train_loader, test_loader
        )
        results = layer_sensitivity(
            model, test_loader, rate, num_runs=scale.defect_runs,
            seed=31,
        )
        return acc_pre, results

    acc_pre, results = run_once(run)
    print()
    print(render_sensitivity(
        f"Ablation D: per-layer sensitivity at rate {rate} "
        f"(pretrain {acc_pre:.2f}%)",
        results,
    ))
    # The new spread statistics are populated for every tensor.
    assert all(s.num_runs == scale.defect_runs for s in results)
    assert all(s.std_accuracy >= 0.0 for s in results)

    # Single-layer faults hurt less than whole-model faults would; at
    # least one layer must show a real drop, and the ranking is sorted.
    assert results[0].accuracy_drop > 1.0
    drops = [s.accuracy_drop for s in results]
    assert drops == sorted(drops, reverse=True)
    # Sensitivity is not simply proportional to weight count: the most
    # sensitive tensor is not always the largest one OR the drop-per-weight
    # varies by over 2x across tensors.
    per_weight = [
        s.accuracy_drop / s.num_weights for s in results if s.accuracy_drop > 0
    ]
    if len(per_weight) >= 2:
        assert max(per_weight) > 2 * min(per_weight)
