"""Lifetime of the backward state a layer keeps in ``_saved``.

The rule: ``forward`` saves what ``backward`` needs; ``no_grad`` drops it
as soon as each forward returns; a train/eval switch drops it; pickles
and deep copies never carry it.
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import evaluate_accuracy, evaluate_defect_accuracy, nn
from repro.datasets import ArrayDataset, DataLoader
from repro.experiments import clone_model
from repro.forensics import named_leaf_modules
from repro.models import resnet8
from repro.nn.cost import capture_shapes


def _holds_state(model):
    return [m for m in model.modules() if m._saved is not None]


def _grad_mode_on():
    """True when a forward outside any context keeps its backward state."""
    layer = nn.Linear(2, 2, rng=np.random.default_rng(0))
    layer(np.ones((1, 2)))
    return layer._saved is not None


def _model(seed=0):
    return resnet8(num_classes=4, base_width=4, rng=np.random.default_rng(seed))


def _batch(seed=1, n=8, size=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, size, size)), rng.integers(0, 4, n)


def _train_step(model, images, labels):
    model.train()
    model.zero_grad()
    _, grad = nn.CrossEntropyLoss()(model(images), labels)
    model.backward(grad)


# -- no_grad ------------------------------------------------------------------
def test_no_grad_restores_mode_on_exit_and_on_exception():
    assert _grad_mode_on()
    with nn.no_grad():
        assert not _grad_mode_on()
    assert _grad_mode_on()
    with pytest.raises(KeyError):
        with nn.no_grad():
            raise KeyError("boom")
    assert _grad_mode_on()


def test_no_grad_nests():
    with nn.no_grad():
        with nn.no_grad():
            assert not _grad_mode_on()
        assert not _grad_mode_on()
    assert _grad_mode_on()


@pytest.mark.parametrize("training", [False, True])
def test_no_grad_outputs_are_bit_identical(training):
    images, _ = _batch()
    plain = _model().train(training)
    quiet = copy.deepcopy(plain)
    expected = plain(images)
    with nn.no_grad():
        got = quiet(images)
    assert np.array_equal(got, expected)
    assert _holds_state(plain)
    assert not _holds_state(quiet)
    # Train-mode BatchNorm statistics update the same way under no_grad.
    assert all(
        np.array_equal(a, b)
        for a, b in zip(
            plain.state_dict().values(), quiet.state_dict().values()
        )
    )


LAYERS = {
    "conv": (lambda: nn.Conv2d(2, 3, 3, padding=1), (2, 2, 4, 4)),
    "linear": (lambda: nn.Linear(4, 3), (2, 4)),
    "batchnorm2d": (lambda: nn.BatchNorm2d(2), (2, 2, 4, 4)),
    "batchnorm1d": (lambda: nn.BatchNorm1d(4), (2, 4)),
    "groupnorm": (lambda: nn.GroupNorm(1, 2), (2, 2, 4, 4)),
    "maxpool": (lambda: nn.MaxPool2d(2), (2, 2, 4, 4)),
    "avgpool": (lambda: nn.AvgPool2d(2), (2, 2, 4, 4)),
    "globalavgpool": (nn.GlobalAvgPool2d, (2, 2, 4, 4)),
    "flatten": (nn.Flatten, (2, 2, 4, 4)),
    "relu": (nn.ReLU, (2, 4)),
    "leakyrelu": (nn.LeakyReLU, (2, 4)),
    "tanh": (nn.Tanh, (2, 4)),
    "sigmoid": (nn.Sigmoid, (2, 4)),
}


@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_backward_after_no_grad_forward_raises(kind):
    factory, shape = LAYERS[kind]
    layer = factory()
    x = np.random.default_rng(0).normal(size=shape)
    out = layer(x)
    layer.backward(np.ones_like(out))  # a normal forward keeps the state
    with nn.no_grad():
        out = layer(x)
    assert layer._saved is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))


def test_backward_after_no_grad_model_forward_raises():
    model = _model()
    images, _ = _batch()
    with nn.no_grad():
        logits = model(images)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        model.backward(np.ones_like(logits))


def test_no_grad_drops_state_even_when_forward_raises():
    layer = nn.Conv2d(3, 2, 3)
    layer(np.zeros((1, 3, 4, 4)))
    with nn.no_grad(), pytest.raises(ValueError):
        layer(np.zeros((1, 1, 4, 4)))
    assert layer._saved is None


# -- where state is dropped ---------------------------------------------------
def test_mode_switch_drops_state_and_same_mode_keeps_it():
    model = _model()
    images, labels = _batch()
    _train_step(model, images, labels)
    assert _holds_state(model)
    model.train()  # no switch: a pending backward stays possible
    assert _holds_state(model)
    model.eval()
    assert not _holds_state(model)


def test_eval_mode_backward_still_works():
    model = _model().eval()
    images, labels = _batch()
    _, grad = nn.CrossEntropyLoss()(model(images), labels)
    model.backward(grad)
    assert any(np.any(p.grad) for p in model.parameters())


def test_defect_evaluation_leaves_no_state():
    model = _model()
    images, labels = _batch()
    _train_step(model, images, labels)
    loader = DataLoader(ArrayDataset(images, labels), 4, shuffle=False)
    evaluate_defect_accuracy(model, loader, 0.05, num_runs=3, seed=5)
    assert model.training
    assert not _holds_state(model)


@pytest.mark.parametrize(
    "copier",
    [clone_model, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["clone_model", "deepcopy", "pickle"],
)
def test_copies_of_a_just_trained_model_carry_no_state(copier):
    model = _model()
    images, labels = _batch()
    _train_step(model, images, labels)
    held = len(_holds_state(model))
    assert held
    twin = copier(model)
    assert not _holds_state(twin)
    assert len(_holds_state(model)) == held  # the original is untouched
    # The copy trains like the original from here on.
    _train_step(twin, images, labels)
    _train_step(model, images, labels)
    for a, b in zip(model.parameters(), twin.parameters()):
        assert np.array_equal(a.grad, b.grad)


def test_training_after_mode_round_trips_matches_plain_training():
    images, labels = _batch()
    plain, tripped = _model(), _model()
    for _ in range(2):
        _train_step(plain, images, labels)
        _train_step(tripped, images, labels)
        tripped.eval()
        tripped.train()
        tripped.eval()
        tripped(images)
    _train_step(plain, images, labels)
    _train_step(tripped, images, labels)
    for a, b in zip(plain.parameters(), tripped.parameters()):
        assert np.array_equal(a.grad, b.grad)


# -- memory guard -------------------------------------------------------------
def test_evaluation_peak_stays_below_one_copy_of_every_im2col():
    """A forward-only evaluation holds one layer's im2col at a time.

    Keeping every conv's ``cols`` for a backward that never comes made the
    traced peak exceed the sum of all of them.
    """
    rng = np.random.default_rng(0)
    model = resnet8(num_classes=4, base_width=8, rng=rng)
    shape = (64, 3, 8, 8)
    loader = DataLoader(
        ArrayDataset(rng.normal(size=shape), rng.integers(0, 4, shape[0])),
        shape[0],
        shuffle=False,
    )
    shapes = capture_shapes(model, shape)
    im2col_bytes = 0
    for name, leaf in named_leaf_modules(model):
        if isinstance(leaf, nn.Conv2d):
            (n, c, _, _), (_, _, out_h, out_w) = shapes[name]
            im2col_bytes += n * out_h * out_w * c * leaf.kernel_size**2 * 8
    evaluate_accuracy(model, loader)  # warm: first-call allocations
    tracemalloc.start()
    try:
        evaluate_accuracy(model, loader)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < im2col_bytes
