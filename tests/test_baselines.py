"""Tests for the conventional fault-mitigation baselines."""

import copy

import numpy as np
import pytest

from repro import nn
from repro.baselines import (
    DeviceFaultMap,
    DeviceSpecificRetrainer,
    RedundantWeightProtection,
)
from repro.core import Trainer, evaluate_accuracy
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP
from repro.reram import WeightSpaceFaultModel
from repro.reram.deploy import crossbar_parameters


def make_loader(rng, n=100):
    centers = rng.normal(size=(3, 8)) * 3
    labels = rng.integers(0, 3, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    return DataLoader(
        ArrayDataset(images.reshape(n, 1, 2, 4), labels), 25,
        shuffle=True, seed=0,
    )


@pytest.fixture
def trained(rng):
    loader = make_loader(rng)
    model = MLP(8, [16], 3, rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt).fit(loader, 8)
    return model, loader


# -- DeviceFaultMap -------------------------------------------------------------


def test_fault_map_covers_all_crossbar_tensors(trained, rng):
    model, _ = trained
    fmap = DeviceFaultMap.sample(model, 0.2, rng)
    names = {name for name, _ in crossbar_parameters(model)}
    assert set(fmap.maps) == names
    assert fmap.fault_count > 0


def test_fault_map_apply_clamps_weights(trained, rng):
    model, _ = trained
    fmap = DeviceFaultMap.sample(model, 0.3, rng)
    clone = copy.deepcopy(model)
    fmap.apply_to(clone, rng)
    diff = False
    for (_, a), (_, b) in zip(
        crossbar_parameters(model), crossbar_parameters(clone)
    ):
        if not np.array_equal(a.data, b.data):
            diff = True
    assert diff


def test_fault_map_apply_missing_tensor_raises(trained, rng):
    model, _ = trained
    fmap = DeviceFaultMap({})
    with pytest.raises(KeyError):
        fmap.apply_to(model, rng)


# -- DeviceSpecificRetrainer ----------------------------------------------------


def test_retrainer_keeps_faulty_positions_clamped(trained, rng):
    model, loader = trained
    fmap = DeviceFaultMap.sample(model, 0.1, rng)
    retrainer = DeviceSpecificRetrainer(model, fmap, rng=rng)
    retrainer.fit(loader, epochs=3, lr=0.05)
    for name, param in crossbar_parameters(model):
        faulty = fmap.maps[name] != 0
        np.testing.assert_array_equal(
            param.data[faulty], retrainer._stuck_values[name][faulty]
        )


def test_retrainer_recovers_accuracy_on_its_device(trained, rng):
    """The defining property: retraining compensates the known map."""
    model, loader = trained
    # A rate high enough to visibly break the (robust) little MLP.
    fmap = DeviceFaultMap.sample(model, 0.4, np.random.default_rng(1))

    broken = copy.deepcopy(model)
    fmap.apply_to(broken, np.random.default_rng(2))
    acc_broken = evaluate_accuracy(broken, loader)
    assert acc_broken < 95.0  # the device defect actually hurts

    adapted = copy.deepcopy(model)
    retrainer = DeviceSpecificRetrainer(
        adapted, fmap, rng=np.random.default_rng(2)
    )
    retrainer.fit(loader, epochs=6, lr=0.05)
    acc_adapted = evaluate_accuracy(adapted, loader)
    assert acc_adapted > acc_broken


def test_retrainer_does_not_transfer_to_other_devices(trained, rng):
    """The paper's versatility argument: a device-specific model gives no
    general protection on a *different* device."""
    from repro.core import evaluate_defect_accuracy

    model, loader = trained
    fmap = DeviceFaultMap.sample(model, 0.15, np.random.default_rng(1))
    adapted = copy.deepcopy(model)
    DeviceSpecificRetrainer(
        adapted, fmap, rng=np.random.default_rng(2)
    ).fit(loader, epochs=5, lr=0.05)

    # On fresh random devices the adapted model behaves like any
    # unprotected model: large degradation remains possible.
    fresh = evaluate_defect_accuracy(
        adapted, loader, 0.15, num_runs=8, seed=3
    )
    clean = evaluate_accuracy(adapted, loader)
    assert fresh.mean_accuracy < clean  # no free generalisation


# -- RedundantWeightProtection ----------------------------------------------------


def test_redundancy_one_replica_equals_plain_faults(rng):
    w = rng.normal(size=(40, 40))
    protection = RedundantWeightProtection(replicas=1)
    plain = WeightSpaceFaultModel().apply(
        w, 0.2, np.random.default_rng(5)
    )
    redundant = protection.apply(w, 0.2, np.random.default_rng(5))
    np.testing.assert_array_equal(plain, redundant)


def test_redundancy_zero_rate_identity(rng):
    w = rng.normal(size=(10, 10))
    out = RedundantWeightProtection(replicas=3).apply(w, 0.0, rng)
    np.testing.assert_array_equal(out, w)


def test_redundancy_median_suppresses_faults(rng):
    """With r=3 and moderate rates, most effective weights stay exact."""
    w = rng.normal(size=(100, 100))
    p = 0.1
    plain = WeightSpaceFaultModel().apply(w, p, np.random.default_rng(1))
    r3 = RedundantWeightProtection(replicas=3).apply(
        w, p, np.random.default_rng(1)
    )
    plain_changed = np.mean(plain != w)
    r3_changed = np.mean(r3 != w)
    # Median-of-3 only breaks when >= 2 replicas fault: ~3p^2 << p.
    assert r3_changed < plain_changed / 2


def test_redundancy_mean_combiner(rng):
    w = rng.normal(size=(30, 30))
    out = RedundantWeightProtection(replicas=3, combiner="mean").apply(
        w, 0.2, rng
    )
    assert out.shape == w.shape


def test_redundancy_area_overhead():
    assert RedundantWeightProtection(replicas=5).area_overhead == 5.0


def test_redundancy_validation():
    with pytest.raises(ValueError):
        RedundantWeightProtection(replicas=0)
    with pytest.raises(ValueError):
        RedundantWeightProtection(combiner="mode")
