"""Tests for PTQ, QAT and the quantise-then-fault model."""

import numpy as np
import pytest

from repro import nn
from repro.core import Trainer, evaluate_accuracy, evaluate_defect_accuracy
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP
from repro.quantization import (
    QuantizationAwareTrainer,
    QuantizedFaultModel,
    quantize_model_weights,
)
from repro.reram.deploy import crossbar_parameters


def make_loader(rng, n=90):
    centers = rng.normal(size=(3, 8)) * 3
    labels = rng.integers(0, 3, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    return DataLoader(
        ArrayDataset(images.reshape(n, 1, 2, 4), labels), 30,
        shuffle=True, seed=0,
    )


def test_ptq_snaps_all_crossbar_weights(rng):
    model = MLP(8, [16], 3, rng=rng)
    quantize_model_weights(model, levels=5)
    for _, param in crossbar_parameters(model):
        w_max = np.max(np.abs(param.data))
        if w_max == 0:
            continue
        grid = np.linspace(0, w_max, 5)
        for value in np.abs(param.data).reshape(-1):
            assert np.min(np.abs(grid - value)) < 1e-9


def test_ptq_mild_at_high_resolution(rng):
    loader = make_loader(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt).fit(loader, 8)
    acc_fp = evaluate_accuracy(model, loader)
    quantize_model_weights(model, levels=256)
    acc_q = evaluate_accuracy(model, loader)
    assert acc_q > acc_fp - 2.0


def test_qat_trains_and_restores_full_precision(rng):
    loader = make_loader(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = QuantizationAwareTrainer(model, opt, levels=8, rng=rng)
    history = trainer.fit(loader, 6)
    assert history.num_epochs == 6
    # After training, weights are full precision (quantisation is only
    # simulated per step), i.e. generally NOT on the 8-level grid.
    _, param = crossbar_parameters(model)[0]
    w_max = np.max(np.abs(param.data))
    grid = np.linspace(0, w_max, 8)
    off_grid = sum(
        np.min(np.abs(grid - v)) > 1e-9
        for v in np.abs(param.data).reshape(-1)
    )
    assert off_grid > 0


def test_qat_model_survives_quantised_deployment(rng):
    """QAT-trained weights lose less accuracy under coarse PTQ."""
    import copy

    loader = make_loader(rng, n=120)
    base = MLP(8, [24], 3, rng=np.random.default_rng(3))
    opt = nn.SGD(base.parameters(), lr=0.1, momentum=0.9)
    Trainer(base, opt).fit(loader, 8)

    qat = copy.deepcopy(base)
    qat_opt = nn.SGD(qat.parameters(), lr=0.05, momentum=0.9)
    QuantizationAwareTrainer(
        qat, qat_opt, levels=3, rng=np.random.default_rng(4)
    ).fit(loader, 6)

    base_q = copy.deepcopy(base)
    quantize_model_weights(base_q, levels=3)
    qat_q = copy.deepcopy(qat)
    quantize_model_weights(qat_q, levels=3)
    assert evaluate_accuracy(qat_q, loader) >= evaluate_accuracy(
        base_q, loader
    ) - 5.0


def test_qat_validation(rng):
    model = MLP(4, [], 2, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1)
    with pytest.raises(ValueError):
        QuantizationAwareTrainer(model, opt, levels=1, rng=rng)


def test_quantized_fault_model_zero_rate_is_pure_quantisation(rng):
    w = rng.normal(size=(20, 20))
    model = QuantizedFaultModel(levels=4)
    out = model.apply(w, 0.0, rng)
    from repro.reram import quantize_symmetric

    expected = quantize_symmetric(w, 4, float(np.max(np.abs(w))))
    np.testing.assert_allclose(out, expected)


def test_quantized_fault_model_sa1_pins_to_quantised_max(rng):
    w = rng.normal(size=(60, 60))
    model = QuantizedFaultModel(levels=8, ratio=(0.0, 1.0))
    out = model.apply(w, 0.3, rng)
    w_max = np.max(np.abs(model.quantizer(w)))
    quantised = model.quantizer(w)
    changed = out != quantised
    assert np.any(changed)
    np.testing.assert_allclose(np.abs(out[changed]), w_max)


def test_quantized_fault_model_in_defect_evaluation(rng):
    loader = make_loader(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt).fit(loader, 6)
    result = evaluate_defect_accuracy(
        model, loader, 0.1, num_runs=3, seed=12345,
        fault_model=QuantizedFaultModel(levels=16),
    )
    assert 0.0 <= result.mean_accuracy <= 100.0


def test_quantized_fault_model_validation():
    with pytest.raises(ValueError):
        QuantizedFaultModel(levels=1)
