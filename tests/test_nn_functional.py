"""Tests for the low-level array ops."""

import numpy as np
import pytest

from repro.nn import functional as F


def test_conv_output_size_basic():
    assert F.conv_output_size(8, 3, 1, 1) == 8
    assert F.conv_output_size(8, 3, 2, 1) == 4
    assert F.conv_output_size(8, 1, 1, 0) == 8


def test_conv_output_size_invalid_raises():
    with pytest.raises(ValueError):
        F.conv_output_size(2, 5, 1, 0)


def test_pad_unpad_roundtrip(rng):
    x = rng.normal(size=(2, 3, 5, 5))
    padded = F.pad2d(x, 2)
    assert padded.shape == (2, 3, 9, 9)
    np.testing.assert_array_equal(F.unpad2d(padded, 2), x)


def test_pad_zero_is_identity(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    assert F.pad2d(x, 0) is x


def test_im2col_shape(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    cols, oh, ow = F.im2col(x, kernel=3, stride=1, padding=1)
    assert (oh, ow) == (8, 8)
    assert cols.shape == (2 * 8 * 8, 3 * 9)


def test_im2col_values_against_naive(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    cols, oh, ow = F.im2col(x, kernel=3, stride=2, padding=0)
    # Output pixel (0, 0) should be the top-left 3x3 patch of each channel.
    patch = x[0, :, 0:3, 0:3].reshape(-1)
    np.testing.assert_allclose(cols[0], patch)
    # Output pixel (1, 1) -> patch starting at (2, 2).
    patch = x[0, :, 2:5, 2:5].reshape(-1)
    np.testing.assert_allclose(cols[1 * ow + 1], patch)


def test_col2im_is_adjoint_of_im2col(rng):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    x = rng.normal(size=(2, 3, 6, 6))
    kernel, stride, padding = 3, 2, 1
    cols, _, _ = F.im2col(x, kernel, stride, padding)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    back = F.col2im(y, x.shape, kernel, stride, padding)
    rhs = float(np.sum(x * back))
    assert abs(lhs - rhs) < 1e-10


# -- bit-identity against the plain lowering --------------------------------
# The kernels in repro.nn.functional are data-movement optimisations of the
# straightforward lowering below.  Results must not change, and neither may
# col2im's output layout unless on purpose: downstream BatchNorm reductions
# sum in memory order.  col2im returns C-contiguous NCHW memory, where the
# reference returns a padded slice of it; both are NCHW-ordered, so the
# results numpy allocates from them (and reduces) are laid out alike.
def _reference_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), out_h, out_w


def _reference_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            x_padded[:, :, ki:i_max:stride, kj:j_max:stride] += patches[
                :, :, :, :, ki, kj
            ]
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def _layouts(x):
    """The same NCHW values in NCHW memory and in NHWC memory.

    A Conv2d output is a transposed view of NHWC memory, so the next
    layer's im2col sees both layouts.
    """
    nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return {"nchw": x, "nhwc": nhwc}


KERNEL_CASES = [
    (kernel, stride, padding)
    for kernel in (1, 3, 5)
    for stride in (1, 2)
    for padding in (0, 1, 2)
]


@pytest.mark.parametrize("kernel,stride,padding", KERNEL_CASES)
@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_im2col_matches_reference_bit_for_bit(kernel, stride, padding, layout):
    x = _layouts(np.random.default_rng(kernel).normal(size=(2, 3, 7, 6)))[layout]
    got, out_h, out_w = F.im2col(x, kernel, stride, padding)
    want, ref_h, ref_w = _reference_im2col(x, kernel, stride, padding)
    assert (out_h, out_w) == (ref_h, ref_w)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kernel,stride,padding", KERNEL_CASES)
@pytest.mark.parametrize("blocked", [False, True], ids=["one_block", "per_image"])
def test_col2im_matches_reference_bit_for_bit(
    kernel, stride, padding, blocked, monkeypatch
):
    if blocked:  # one image per block, as large batches are split
        monkeypatch.setattr(F, "_BLOCK_BYTES", 1)
    x_shape = (2, 3, 7, 6)
    out_h = F.conv_output_size(7, kernel, stride, padding)
    out_w = F.conv_output_size(6, kernel, stride, padding)
    cols = np.random.default_rng(stride).normal(
        size=(2 * out_h * out_w, 3 * kernel * kernel)
    )
    got = F.col2im(cols, x_shape, kernel, stride, padding)
    want = _reference_col2im(cols, x_shape, kernel, stride, padding)
    assert np.array_equal(got, want)
    assert got.strides == np.empty(x_shape).strides


@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (3, 1)])
def test_pooling_shapes_match_reference_bit_for_bit(kernel, stride):
    """Pooling lowers each channel as a C = 1 image."""
    x = np.random.default_rng(0).normal(size=(2, 4, 8, 8))
    for layout in _layouts(x).values():
        flat = layout.reshape(8, 1, 8, 8)
        got, _, _ = F.im2col(flat, kernel, stride, 0)
        want, _, _ = _reference_im2col(flat, kernel, stride, 0)
        assert np.array_equal(got, want)
    cols = np.random.default_rng(1).normal(size=got.shape)
    got = F.col2im(cols, (8, 1, 8, 8), kernel, stride, 0)
    want = _reference_col2im(cols, (8, 1, 8, 8), kernel, stride, 0)
    assert np.array_equal(got, want)
    assert got.strides == want.strides == np.empty((8, 1, 8, 8)).strides


def test_im2col_and_col2im_write_into_out(rng):
    x = rng.normal(size=(3, 2, 7, 6))
    want, _, _ = F.im2col(x, 3, 2, 1)
    buf = np.full(want.shape, np.nan)
    got, _, _ = F.im2col(x, 3, 2, 1, buf)
    assert got is buf and np.array_equal(got, want)
    cols = rng.normal(size=want.shape)
    out = np.full(x.shape, np.nan)
    assert F.col2im(cols, x.shape, 3, 2, 1, out) is out
    assert np.array_equal(out, _reference_col2im(cols, x.shape, 3, 2, 1))


def test_pad2d_matches_np_pad(rng):
    for x in _layouts(rng.normal(size=(2, 3, 4, 5))).values():
        got = F.pad2d(x, 2)
        want = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)), mode="constant")
        assert np.array_equal(got, want)
        assert got.strides == want.strides


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(5, 7)) * 10
    s = F.softmax(logits, axis=1)
    np.testing.assert_allclose(s.sum(axis=1), np.ones(5))
    assert np.all(s >= 0)


def test_softmax_is_shift_invariant(rng):
    logits = rng.normal(size=(3, 4))
    np.testing.assert_allclose(
        F.softmax(logits), F.softmax(logits + 100.0), atol=1e-12
    )


def test_log_softmax_matches_log_of_softmax(rng):
    logits = rng.normal(size=(3, 6))
    np.testing.assert_allclose(
        F.log_softmax(logits), np.log(F.softmax(logits)), atol=1e-12
    )


def test_log_softmax_stable_for_large_logits():
    logits = np.array([[1000.0, 0.0]])
    out = F.log_softmax(logits)
    assert np.all(np.isfinite(out))


def test_one_hot_basic():
    encoded = F.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        encoded, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
    )


def test_one_hot_out_of_range_raises():
    with pytest.raises(ValueError):
        F.one_hot(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        F.one_hot(np.array([-1]), 3)


def test_one_hot_requires_1d():
    with pytest.raises(ValueError):
        F.one_hot(np.zeros((2, 2), dtype=int), 3)
