"""Integration: the checkpoint-and-redeploy workflow.

A production flow trains the fault-tolerant model once, checkpoints it
with its hardening metadata, and later reloads it on another machine for
deployment — the reload must reproduce the exact defect behaviour.
"""

import numpy as np

from repro import nn
from repro.core import (
    OneShotFaultTolerantTrainer,
    evaluate_defect_accuracy,
)
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP
from repro.nn import load_checkpoint, save_checkpoint


def test_checkpointed_ft_model_reproduces_defect_accuracy(tmp_path, rng):
    n = 100
    centers = rng.normal(size=(3, 8)) * 3
    labels = rng.integers(0, 3, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    loader = DataLoader(ArrayDataset(images.reshape(n, 1, 2, 4), labels),
                        25, shuffle=True, seed=0)

    model = MLP(8, [16], 3, rng=np.random.default_rng(1))
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    target = 0.05
    OneShotFaultTolerantTrainer(
        model, opt, p_sa_target=target, rng=np.random.default_rng(2)
    ).fit(loader, 6)

    path = str(tmp_path / "hardened.npz")
    save_checkpoint(path, model, metadata={"p_sa_target": target})

    # "Another machine": fresh model object, load the checkpoint.
    fresh = MLP(8, [16], 3, rng=np.random.default_rng(99))
    meta = load_checkpoint(path, fresh)
    assert meta["p_sa_target"] == target

    original = evaluate_defect_accuracy(
        model, loader, target, num_runs=4, seed=3
    )
    reloaded = evaluate_defect_accuracy(
        fresh, loader, target, num_runs=4, seed=3
    )
    assert original.run_accuracies == reloaded.run_accuracies
