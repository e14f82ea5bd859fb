"""The training fast paths against the plain expressions they replace.

BatchNorm, ReLU/LeakyReLU and ``Conv2d.backward`` compute with ``out=``
chains on matched memory layouts, and the conv data gradient runs one
block of images at a time.  Each must give the bits of the straightforward
expressions kept below as references: every element goes through the same
IEEE operations in the same order, and every reduction sums an array laid
out as before (numpy's reduction order follows memory layout).  Inputs
come in NCHW memory, in NHWC memory (as a conv output is) and as a padded
slice.  CI also runs this file with ``OPENBLAS_NUM_THREADS=1``.
"""

import contextlib
import copy
import hashlib

import numpy as np
import pytest

from repro import nn
from repro.experiments import get_scale
from repro.experiments.runner import build_backbone
from repro.nn import functional as F


# -- references: the expressions the fast paths replace, verbatim ------------
class _ReferenceBatchNorm:
    def forward(self, x):
        axes = self._reduce_axes(x)
        shape = self._channel_shape(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = float(np.prod([x.shape[a] for a in axes]))
            # Running var uses the unbiased estimator, as in PyTorch.
            unbiased = var * m / max(m - 1.0, 1.0)
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean,
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        self._saved = (x_hat, inv_std, axes, shape)
        return self.gamma.data.reshape(shape) * x_hat + self.beta.data.reshape(shape)

    def backward(self, grad_out):
        x_hat, inv_std, axes, shape = self._pop_saved()
        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        grad_xhat = grad_out * self.gamma.data.reshape(shape)
        if not self.training:
            # Eval mode: mean/var are constants.
            return grad_xhat * inv_std.reshape(shape)
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        sum_g = grad_xhat.sum(axis=axes).reshape(shape)
        sum_gx = (grad_xhat * x_hat).sum(axis=axes).reshape(shape)
        return (inv_std.reshape(shape) / m) * (
            m * grad_xhat - sum_g - x_hat * sum_gx
        )


class ReferenceBatchNorm2d(_ReferenceBatchNorm, nn.BatchNorm2d):
    pass


class ReferenceBatchNorm1d(_ReferenceBatchNorm, nn.BatchNorm1d):
    pass


class ReferenceReLU(nn.ReLU):
    def backward(self, grad_out):
        return grad_out * self._pop_saved()


class ReferenceLeakyReLU(nn.LeakyReLU):
    def backward(self, grad_out):
        mask = self._pop_saved()
        return np.where(mask, grad_out, self.negative_slope * grad_out)


def _reference_col2im(cols, x_shape, kernel, stride, padding):
    """Whole-batch scatter into a zeroed NCHW buffer; a padded slice of it."""
    n, c, h, w = x_shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    x_nhwc = x_padded.transpose(0, 2, 3, 1)
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            x_nhwc[:, ki:i_max:stride, kj:j_max:stride] += patches[..., ki, kj]
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


class ReferenceConv2d(nn.Conv2d):
    def backward(self, grad_out):
        x = self._pop_saved()
        cols, out_h, out_w = F.im2col(x, self.kernel_size, self.stride, self.padding)
        # (N, C_out, H, W) -> rows matching the im2col layout
        grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(
            x.shape[0] * out_h * out_w, self.out_channels
        )
        self.weight.grad += (grad_rows.T @ cols).reshape(self.weight.shape)
        del cols
        if self.bias is not None:
            self.bias.grad += grad_rows.sum(axis=0)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = grad_rows @ weight_mat
        return _reference_col2im(
            grad_cols, x.shape, self.kernel_size, self.stride, self.padding
        )


REFERENCE_CLASSES = {
    nn.BatchNorm2d: ReferenceBatchNorm2d,
    nn.BatchNorm1d: ReferenceBatchNorm1d,
    nn.ReLU: ReferenceReLU,
    nn.LeakyReLU: ReferenceLeakyReLU,
    nn.Conv2d: ReferenceConv2d,
}


def _as_reference(model):
    """A deep copy of ``model`` whose layers compute with the references."""
    model = copy.deepcopy(model)
    for layer in model.modules():
        layer.__class__ = REFERENCE_CLASSES.get(type(layer), type(layer))
    return model


# -- inputs in every layout --------------------------------------------------
def _layouts(a):
    """``a``'s values in NCHW (or C-order) memory, in NHWC (or F-order)
    memory, and as a slice of a padded buffer."""
    if a.ndim == 4:
        other = np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        padded = np.zeros(a.shape[:2] + (a.shape[2] + 2, a.shape[3] + 2))
        padded[:, :, 1:-1, 1:-1] = a
        sliced = padded[:, :, 1:-1, 1:-1]
    else:
        other = np.asfortranarray(a)
        padded = np.zeros((a.shape[0], a.shape[1] + 3))
        padded[:, 1:-2] = a
        sliced = padded[:, 1:-2]
    return {"nchw": a.copy(), "nhwc": other, "padded": sliced}


LAYOUTS = ["nchw", "nhwc", "padded"]


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _pair(layer, rng):
    """``layer`` with random parameters and buffers, and its reference twin."""
    state = layer.state_dict()
    layer.load_state_dict(
        {name: rng.uniform(0.5, 1.5, size=value.shape) for name, value in state.items()}
    )
    return layer, _as_reference(layer)


def _train_step_both(fast, ref, x, grad, steps=2):
    for _ in range(steps):
        for layer in (fast, ref):
            layer.zero_grad()
        out_fast, out_ref = fast(x), ref(x)
        _assert_same_bits(out_fast, out_ref)
        grad_before = grad.copy()
        _assert_same_bits(fast.backward(grad), ref.backward(grad))
        # A layer never writes into its input: BasicBlock hands one
        # gradient to both branches.
        _assert_same_bits(grad, grad_before)
    for p_fast, p_ref in zip(fast.parameters(), ref.parameters()):
        _assert_same_bits(p_fast.grad, p_ref.grad)
    ref_state = ref.state_dict()
    for name, value in fast.state_dict().items():
        _assert_same_bits(value, ref_state[name])


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("grad_layout", LAYOUTS)
@pytest.mark.parametrize("x_layout", LAYOUTS)
def test_batchnorm2d_matches_reference(x_layout, grad_layout, training):
    rng = np.random.default_rng(0)
    fast, ref = _pair(nn.BatchNorm2d(16), rng)
    fast.train(training)
    ref.train(training)
    x = _layouts(rng.normal(2.0, 3.0, size=(50, 16, 12, 12)))[x_layout]
    grad = _layouts(rng.normal(size=(50, 16, 12, 12)))[grad_layout]
    _train_step_both(fast, ref, x, grad)


@pytest.mark.parametrize("grad_enabled", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("x_layout", ["nchw", "nhwc"])
def test_batchnorm2d_eval_forward_matches_reference(x_layout, grad_enabled):
    """Under ``no_grad`` the eval forward chains into x_hat's one buffer;
    with grad enabled it still saves x_hat for backward.  Both give the
    reference's bits in the reference's layout and leave x unwritten."""
    rng = np.random.default_rng(5)
    fast, ref = _pair(nn.BatchNorm2d(16), rng)
    fast.eval()
    ref.eval()
    x = _layouts(rng.normal(2.0, 3.0, size=(50, 16, 12, 12)))[x_layout]
    x_before = x.copy()
    with contextlib.nullcontext() if grad_enabled else nn.no_grad():
        out, want = fast(x), ref(x)
    _assert_same_bits(out, want)
    assert out.strides == want.strides
    _assert_same_bits(x, x_before)
    if grad_enabled:
        grad = rng.normal(size=x.shape)
        _assert_same_bits(fast.backward(grad), ref.backward(grad))


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("grad_layout", LAYOUTS)
@pytest.mark.parametrize("x_layout", LAYOUTS)
def test_batchnorm1d_matches_reference(x_layout, grad_layout, training):
    rng = np.random.default_rng(1)
    fast, ref = _pair(nn.BatchNorm1d(32), rng)
    fast.train(training)
    ref.train(training)
    x = _layouts(rng.normal(-1.0, 2.0, size=(50, 32)))[x_layout]
    grad = _layouts(rng.normal(size=(50, 32)))[grad_layout]
    _train_step_both(fast, ref, x, grad)


@pytest.mark.parametrize("layer", [nn.ReLU, lambda: nn.LeakyReLU(0.1)],
                         ids=["relu", "leaky_relu"])
@pytest.mark.parametrize("grad_layout", LAYOUTS)
@pytest.mark.parametrize("x_layout", LAYOUTS)
def test_relu_matches_reference(layer, x_layout, grad_layout):
    rng = np.random.default_rng(2)
    fast, ref = _pair(layer(), rng)
    values = rng.normal(size=(50, 16, 12, 12))
    values[0, 0, 0, :3] = [0.0, -0.0, np.nan]
    x = _layouts(values)[x_layout]
    # Signed zeros in the gradient: x * mask keeps the sign of a zero.
    grad = _layouts(rng.normal(size=values.shape) * (rng.random(values.shape) > 0.3))
    _train_step_both(fast, ref, x, grad[grad_layout])


# The bench ResNet-8's convolutions at its training batch of 50 (12x12
# images), plus a biased and a stride-2 5x5 case.
CONV_CASES = [
    # (in, out, kernel, stride, padding, size, bias)
    (3, 16, 3, 1, 1, 12, False),
    (16, 16, 3, 1, 1, 12, False),
    (16, 32, 3, 2, 1, 12, False),
    (16, 32, 1, 2, 0, 12, False),
    (32, 32, 3, 1, 1, 6, False),
    (32, 64, 3, 2, 1, 6, False),
    (64, 64, 3, 1, 1, 3, False),
    (16, 16, 3, 1, 1, 12, True),
    (8, 4, 5, 2, 2, 9, True),
]


@pytest.mark.parametrize("grad_layout", ["nchw", "nhwc"])
@pytest.mark.parametrize("x_layout", LAYOUTS)
@pytest.mark.parametrize("case", CONV_CASES, ids=str)
def test_conv2d_backward_matches_reference(case, x_layout, grad_layout):
    cin, cout, kernel, stride, padding, size, bias = case
    rng = np.random.default_rng(cin + cout)
    fast, ref = _pair(
        nn.Conv2d(cin, cout, kernel, stride, padding, bias=bias, rng=rng), rng
    )
    x = _layouts(rng.normal(size=(50, cin, size, size)))[x_layout]
    out_size = F.conv_output_size(size, kernel, stride, padding)
    grad = _layouts(rng.normal(size=(50, cout, out_size, out_size)))[grad_layout]
    _train_step_both(fast, ref, x, grad)


def test_conv2d_backward_scatters_per_block_through_the_conv_binding(monkeypatch):
    """The input gradient is C-contiguous NCHW memory, scattered per block
    through the ``col2im`` bound in ``repro.nn.conv`` (the binding the
    end-to-end tracer wraps)."""
    from repro.nn import conv as conv_module

    blocks = []

    def recording_col2im(cols, x_shape, *args):
        blocks.append(x_shape[0])
        return F.col2im(cols, x_shape, *args)

    monkeypatch.setattr(conv_module, "col2im", recording_col2im)
    layer = nn.Conv2d(16, 16, 3, padding=1, bias=False)
    x = np.random.default_rng(3).normal(size=(50, 16, 12, 12))
    out = layer(x)
    grad = layer.backward(out)  # NHWC memory, as BatchNorm2d returns it
    assert grad.flags.c_contiguous
    sizes = [stop - start for start, stop in F.image_blocks(50, 144 * 16 * 9 * 8)]
    assert blocks == sizes and len(sizes) > 1


def test_batchnorm_backward_returns_x_hat_layout():
    """Conv2d.backward uses an NHWC gradient as a view, not a copy."""
    layer = nn.BatchNorm2d(16)
    x = _layouts(np.random.default_rng(4).normal(size=(50, 16, 12, 12)))["nhwc"]
    out = layer(x)
    assert out.strides == x.strides
    grad = layer.backward(np.ones((50, 16, 12, 12)))
    assert grad.strides == x.strides
    rows = grad.transpose(0, 2, 3, 1).reshape(-1, 16)
    assert np.shares_memory(rows, grad)


# -- a whole training step ----------------------------------------------------
def _weights_digest(model):
    state = model.state_dict()
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()


def _train(model, images, labels, steps=2):
    scale = get_scale("bench")
    optimizer = nn.SGD(
        model.parameters(),
        lr=scale.lr,
        momentum=scale.momentum,
        weight_decay=scale.weight_decay,
    )
    loss_fn = nn.CrossEntropyLoss()
    for step in range(steps):
        batch = slice(step * 50, (step + 1) * 50)
        optimizer.zero_grad()
        _, grad = loss_fn(model(images[batch]), labels[batch])
        model.backward(grad)
        optimizer.step()
    return _weights_digest(model)


def test_two_bench_resnet8_training_steps_match_reference_layers():
    scale = get_scale("bench")
    model = build_backbone(scale, 10, np.random.default_rng(scale.seed + 10))
    reference = _as_reference(model)
    assert any(isinstance(m, ReferenceBatchNorm2d) for m in reference.modules())
    rng = np.random.default_rng(5)
    images = rng.normal(size=(100, 3, scale.image_size, scale.image_size))
    labels = rng.integers(0, 10, size=100)
    before = _weights_digest(model)
    assert _train(model, images, labels) == _train(reference, images, labels)
    assert _weights_digest(model) != before
