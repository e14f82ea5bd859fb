"""Lifetime of the backward state a layer keeps in ``_saved``.

The rule: ``forward`` saves what ``backward`` needs; ``backward`` consumes
it; ``no_grad`` drops it as soon as each forward returns; a train/eval
switch drops it; pickles and deep copies never carry it.
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
from repro.nn import functional as F
from repro.nn.cost import capture_shapes
from repro.reram import ADCModel, AnalogConv2d, CrossbarMapper


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
    "dropout": (lambda: nn.Dropout(0.5), (2, 4)),
}


@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_second_backward_after_one_forward_raises(kind):
    """``backward`` consumes the state, as PyTorch frees its graph."""
    factory, shape = LAYERS[kind]
    layer = factory()
    out = layer(np.random.default_rng(0).normal(size=shape))
    layer.backward(np.ones_like(out))
    assert layer._saved is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))


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


def test_model_backward_leaves_no_state():
    model = _model()
    images, labels = _batch()
    _train_step(model, images, labels)
    assert not _holds_state(model)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        model.backward(np.ones((len(labels), 4)))


# -- Dropout ------------------------------------------------------------------
def test_dropout_backward_without_forward_raises():
    layer = nn.Dropout(0.5)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones((2, 3)))


@pytest.mark.parametrize(
    "layer", [nn.Dropout(0.5).eval(), nn.Dropout(0.0)], ids=["eval", "p0"]
)
def test_dropout_identity_forward_has_identity_backward(layer):
    x = np.random.default_rng(0).normal(size=(2, 3))
    grad = np.random.default_rng(1).normal(size=(2, 3))
    assert layer(x) is x
    assert layer.backward(grad) is grad
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(grad)


# -- Conv2d keeps its input, not its patches ----------------------------------
def _reference_conv_backward(layer, x, grad_out):
    """The backward that saved ``cols`` in forward; returns all gradients."""
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    cols, out_h, out_w = F.im2col(x, k, s, p)
    grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(
        x.shape[0] * out_h * out_w, layer.out_channels
    )
    weight_mat = layer.weight.data.reshape(layer.out_channels, -1)
    return (
        F.col2im(grad_rows @ weight_mat, x.shape, k, s, p),
        (grad_rows.T @ cols).reshape(layer.weight.shape),
        grad_rows.sum(axis=0),
    )


@pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 2, 0)])
@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_conv_gradients_are_bit_identical_to_saving_cols(
    kernel, stride, padding, layout
):
    rng = np.random.default_rng(kernel + stride)
    layer = nn.Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=rng)
    x = rng.normal(size=(2, 3, 6, 6))
    if layout == "nhwc":  # a previous conv's output: NHWC memory
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    out = layer(x)
    assert layer._saved is x  # by reference, like Linear
    grad_out = rng.normal(size=out.shape)
    want_x, want_w, want_b = _reference_conv_backward(layer, x, grad_out)
    got_x = layer.backward(grad_out)
    assert np.array_equal(got_x, want_x)
    assert got_x.strides == want_x.strides
    assert np.array_equal(layer.weight.grad, want_w)
    assert np.array_equal(layer.bias.grad, want_b)


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
    model(images)  # a forward whose backward is still to come
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
    model(images)  # mid-step: the forward's state waits for a backward
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


# -- memory guards ------------------------------------------------------------
GUARD_SHAPE = (64, 3, 8, 8)


def _im2col_bytes(model):
    """Summed bytes of every conv's im2col matrix on a GUARD_SHAPE batch."""
    shapes = capture_shapes(model, GUARD_SHAPE)
    total = 0
    for name, leaf in named_leaf_modules(model):
        if isinstance(leaf, nn.Conv2d):
            (n, c, _, _), (_, _, out_h, out_w) = shapes[name]
            total += n * out_h * out_w * c * leaf.kernel_size**2 * 8
    return total


def test_evaluation_peak_stays_below_one_copy_of_every_im2col():
    """A forward-only evaluation holds one layer's im2col at a time.

    Keeping every conv's ``cols`` for a backward that never comes made the
    traced peak exceed the sum of all of them.
    """
    rng = np.random.default_rng(0)
    model = resnet8(num_classes=4, base_width=8, rng=rng)
    loader = DataLoader(
        ArrayDataset(
            rng.normal(size=GUARD_SHAPE), rng.integers(0, 4, GUARD_SHAPE[0])
        ),
        GUARD_SHAPE[0],
        shuffle=False,
    )
    im2col_bytes = _im2col_bytes(model)
    evaluate_accuracy(model, loader)  # warm: first-call allocations
    tracemalloc.start()
    try:
        evaluate_accuracy(model, loader)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < im2col_bytes


def test_training_step_peak_stays_below_one_copy_of_every_im2col():
    """A training step keeps inputs, not patches, and frees them as it goes.

    Saving every conv's ``cols`` until the end of backward made the traced
    peak of one step exceed the sum of all of them, and left them alive
    after the step.
    """
    rng = np.random.default_rng(0)
    model = resnet8(num_classes=4, base_width=8, rng=rng)
    images = rng.normal(size=GUARD_SHAPE)
    labels = rng.integers(0, 4, GUARD_SHAPE[0])
    im2col_bytes = _im2col_bytes(model)
    _train_step(model, images, labels)  # warm: grads and first-call buffers
    tracemalloc.start()
    try:
        _train_step(model, images, labels)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < im2col_bytes
    assert left < 64 * 1024  # nothing of the step outlives it


#: The bench test batch and its stage-1 conv: 100 images, 16 -> 16, 12x12.
STAGE1_SHAPE = (100, 16, 12, 12)
#: That conv's whole-batch im2col: 100 * 12 * 12 rows of 16 * 3 * 3 (16.6 MB).
STAGE1_IM2COL_BYTES = 100 * 12 * 12 * 16 * 9 * 8


def test_evaluation_forward_never_holds_a_whole_batch_im2col():
    """Convolutions lower one block of images at a time.

    Lowering the whole test batch at once made a warm evaluation peak at
    22.1 MiB, above the largest conv's im2col alone.
    """
    rng = np.random.default_rng(0)
    model = resnet8(num_classes=10, base_width=16, rng=rng)
    loader = DataLoader(
        ArrayDataset(rng.normal(size=(100, 3, 12, 12)), rng.integers(0, 10, 100)),
        100,
        shuffle=False,
    )
    evaluate_accuracy(model, loader)  # warm: first-call allocations
    tracemalloc.start()
    try:
        evaluate_accuracy(model, loader)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < STAGE1_IM2COL_BYTES


def test_analog_conv_forward_never_holds_a_whole_batch_im2col():
    rng = np.random.default_rng(0)
    conv = nn.Conv2d(16, 16, 3, padding=1, bias=False, rng=rng)
    layer = AnalogConv2d.from_conv(
        conv, CrossbarMapper(), adc=ADCModel(bits=8, full_scale=64.0)
    )
    x = rng.normal(size=STAGE1_SHAPE)
    layer(x[:1])  # warm
    tracemalloc.start()
    try:
        layer(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < STAGE1_IM2COL_BYTES
