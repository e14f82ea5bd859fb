"""The blocked convolution forward against a whole-batch reference.

``conv2d_blocks`` lowers one block of images at a time.  On every conv
call of the model zoo its output must equal the whole-batch GEMM bit for
bit, with the same strides; with forced small blocks it must agree to
``1e-12 * max|out|`` (BLAS may pick another GEMM kernel for a smaller
matrix).  CI also runs this file with ``OPENBLAS_NUM_THREADS=1``.
"""

import numpy as np
import pytest

from repro import nn
from repro.forensics import named_leaf_modules
from repro.models import SimpleCNN, resnet8, resnet20
from repro.nn import conv as conv_module
from repro.nn import functional as F
from repro.nn.cost import capture_shapes
from repro.reram import ADCModel, AnalogConv2d, CrossbarMapper

MODELS = {
    "resnet8": lambda size, rng: resnet8(rng=rng),
    "resnet20": lambda size, rng: resnet20(rng=rng),
    "simple_cnn": lambda size, rng: SimpleCNN(image_size=size, rng=rng),
}
BATCHES = (1, 7, 50, 100, 128)


def _reference_forward(layer, x):
    """The whole-batch forward: one im2col and one GEMM over every image."""
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    cols, out_h, out_w = F.im2col(x, k, s, p)
    weight_mat = layer.weight.data.reshape(layer.out_channels, -1)
    out = cols @ weight_mat.T
    if layer.bias is not None:
        out = out + layer.bias.data
    return out.reshape(x.shape[0], out_h, out_w, layer.out_channels).transpose(
        0, 3, 1, 2
    )


def _nhwc(x):
    """``x`` with NHWC memory, as a previous conv's output has."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _image_bytes(layer, c, h, w):
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    pixels = F.conv_output_size(h, k, s, p) * F.conv_output_size(w, k, s, p)
    return pixels * c * k * k * 8


@pytest.mark.parametrize("size", [8, 12, 32])
@pytest.mark.parametrize("arch", sorted(MODELS))
def test_every_model_zoo_conv_is_bit_identical(arch, size):
    rng = np.random.default_rng(size)
    model = MODELS[arch](size, rng)
    shapes = capture_shapes(model, (1, 3, size, size))
    seen = set()
    for name, layer in named_leaf_modules(model):
        if not isinstance(layer, nn.Conv2d):
            continue
        (_, c, h, w), _ = shapes[name]
        for n in BATCHES:
            key = (n, c, h, w, layer.out_channels, layer.kernel_size)
            key += (layer.stride, layer.padding, layer.bias is not None)
            if key in seen:
                continue
            seen.add(key)
            x = _nhwc(rng.normal(size=(n, c, h, w)))
            with nn.no_grad():
                got = layer(x)
            want = _reference_forward(layer, x)
            assert np.array_equal(got, want), (name, n)
            assert got.strides == want.strides, (name, n)
    assert seen


def test_blocks_are_balanced_and_lowered_through_the_conv_binding(monkeypatch):
    """The bench stage-1 call: 17 blocks of 5 or 6 images, no short tail.

    ``im2col`` is looked up in ``repro.nn.conv`` at call time, the binding
    the end-to-end tracer wraps.
    """
    sizes = []

    def recording_im2col(x, *args):
        sizes.append(x.shape[0])
        return F.im2col(x, *args)

    monkeypatch.setattr(conv_module, "im2col", recording_im2col)
    layer = nn.Conv2d(16, 16, 3, padding=1, bias=False)
    x = np.random.default_rng(0).normal(size=(100, 16, 12, 12))
    with nn.no_grad():
        layer(x)
    assert sizes == [5] + [6] * 7 + [5] + [6] * 8


@pytest.mark.parametrize(
    "n,image_bytes,sizes",
    [
        (0, 100, [0]),
        (1, 100, [1]),
        (5, 1 << 21, [1, 1, 1, 1, 1]),  # an image over budget: one per block
        (13, (1 << 20) // 4, [3, 3, 3, 4]),  # not 4, 4, 4, 1
        (100, 16 * 9 * 144 * 8, [5] + [6] * 7 + [5] + [6] * 8),  # bench stage 1
    ],
)
def test_image_blocks_are_near_equal_and_cover_the_batch(n, image_bytes, sizes):
    blocks = F.image_blocks(n, image_bytes)
    assert [stop - start for start, stop in blocks] == sizes
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_edge_layouts_and_bias_are_bit_identical(layout, bias):
    rng = np.random.default_rng(3)
    layer = nn.Conv2d(16, 8, 3, padding=1, bias=bias, rng=rng)
    if bias:
        layer.bias.data[:] = rng.normal(size=8)
    x = rng.normal(size=(40, 16, 12, 12))  # 7 blocks
    if layout == "nhwc":
        x = _nhwc(x)
    got = layer(x)
    want = _reference_forward(layer, x)
    assert np.array_equal(got, want)
    assert got.strides == want.strides
    assert layer._saved is x  # backward still rebuilds from the input


def test_empty_batch_matches_reference():
    layer = nn.Conv2d(3, 4, 3, stride=2, padding=1)
    x = np.zeros((0, 3, 9, 9))
    got = layer(x)
    want = _reference_forward(layer, x)
    assert got.shape == want.shape == (0, 4, 5, 5)
    assert got.strides == want.strides


def test_output_size_errors_still_raise():
    with pytest.raises(ValueError, match="output size"):
        nn.Conv2d(3, 4, 5)(np.zeros((2, 3, 3, 3)))


def test_forward_hooks_fire_once_per_call_with_the_whole_output():
    layer = nn.Conv2d(16, 16, 3, padding=1, bias=False)
    x = np.random.default_rng(1).normal(size=(30, 16, 12, 12))  # 5 blocks
    seen = []
    layer.register_forward_hook(lambda m, inp, out: seen.append((inp, out.shape)))
    out = layer(x)
    assert len(seen) == 1
    assert seen[0][0] is x and seen[0][1] == out.shape == (30, 16, 12, 12)


SMALL_CASES = [
    (kernel, stride, padding)
    for kernel in (1, 3, 5)
    for stride in (1, 2)
    for padding in (0, 1, 2)
]


@pytest.mark.parametrize("kernel,stride,padding", SMALL_CASES)
@pytest.mark.parametrize("images", [1, 2], ids=["one_image", "short_tail"])
def test_forced_small_blocks_agree_to_tolerance(
    kernel, stride, padding, images, monkeypatch
):
    """Budgets of one and of two images; 5 images make 5 or 3 blocks.

    Greedy two-image blocks would leave a one-image tail; the balanced
    split makes blocks of 1, 2 and 2 images.
    """
    rng = np.random.default_rng(kernel * 10 + stride)
    layer = nn.Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=rng)
    layer.bias.data[:] = rng.normal(size=4)
    monkeypatch.setattr(F, "_BLOCK_BYTES", images * _image_bytes(layer, 3, 7, 6))
    x = rng.normal(size=(5, 3, 7, 6))
    got = layer(x)
    want = _reference_forward(layer, x)
    assert got.strides == want.strides
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# -- AnalogConv2d shares the lowering -----------------------------------------
def _analog(adc, bias, rng):
    conv = nn.Conv2d(16, 16, 3, padding=1, bias=bias, rng=rng)
    if bias:
        conv.bias.data[:] = rng.normal(size=16)
    return AnalogConv2d.from_conv(
        conv, CrossbarMapper(), adc=adc, input_bits=8 if adc else None
    )


def _reference_analog(layer, x):
    """The whole-batch analog forward: one MVM over every image's patches."""
    cols, out_h, out_w = F.im2col(x, layer.kernel_size, layer.stride, layer.padding)
    out = layer._mvm(cols)
    if layer.bias_value is not None:
        out = out + layer.bias_value
    return out.reshape(x.shape[0], out_h, out_w, layer.out_channels).transpose(
        0, 3, 1, 2
    )


@pytest.mark.parametrize(
    "adc", [None, ADCModel(bits=8, full_scale=64.0)], ids=["ideal", "adc"]
)
@pytest.mark.parametrize("bias", [False, True])
def test_analog_conv_matches_whole_batch_mvm(adc, bias):
    rng = np.random.default_rng(7)
    layer = _analog(adc, bias, rng)
    x = _nhwc(rng.normal(size=(20, 16, 12, 12)))  # 4 blocks
    got = layer(x)
    want = _reference_analog(layer, x)
    assert np.array_equal(got, want)
    assert got.strides == want.strides


def test_analog_conv_forced_small_blocks_agree_to_tolerance(monkeypatch):
    rng = np.random.default_rng(8)
    layer = _analog(None, True, rng)
    monkeypatch.setattr(F, "_BLOCK_BYTES", 2 * 144 * 144 * 8)  # two images
    x = rng.normal(size=(5, 16, 12, 12))
    got = layer(x)
    want = _reference_analog(layer, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
