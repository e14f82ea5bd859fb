"""Tests for datasets, loaders and transforms."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import (
    ArrayDataset,
    Compose,
    DataLoader,
    GaussianNoise,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    Subset,
)


def make_dataset(n=20, rng=None):
    rng = rng or np.random.default_rng(0)
    return ArrayDataset(
        rng.normal(size=(n, 3, 4, 4)), rng.integers(0, 5, size=n), num_classes=5
    )


# -- ArrayDataset ------------------------------------------------------------


def test_array_dataset_len_and_getitem():
    ds = make_dataset(10)
    assert len(ds) == 10
    image, label = ds[3]
    assert image.shape == (3, 4, 4)
    assert isinstance(label, int)
    assert 0 <= label < 5


def test_array_dataset_num_classes_inferred():
    ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 1, 2, 2]))
    assert ds.num_classes == 3


def test_array_dataset_length_mismatch_raises():
    with pytest.raises(ValueError):
        ArrayDataset(np.zeros((3, 1)), np.zeros(4, dtype=int))


def test_array_dataset_2d_labels_raise():
    with pytest.raises(ValueError):
        ArrayDataset(np.zeros((3, 1)), np.zeros((3, 1), dtype=int))


def test_array_dataset_transform_applied():
    ds = ArrayDataset(
        np.ones((2, 1, 2, 2)), np.zeros(2, dtype=int), transform=lambda x: x * 3
    )
    image, _ = ds[0]
    np.testing.assert_allclose(image, 3.0)


# -- Subset ----------------------------------------------------------------------


def test_subset_indexing():
    ds = make_dataset(10)
    sub = Subset(ds, [2, 5, 7])
    assert len(sub) == 3
    np.testing.assert_array_equal(sub[1][0], ds[5][0])
    assert sub.num_classes == 5


def test_subset_out_of_range_raises():
    with pytest.raises(IndexError):
        Subset(make_dataset(5), [10])


# -- DataLoader ---------------------------------------------------------------------


def test_loader_batches_cover_dataset():
    ds = make_dataset(23)
    loader = DataLoader(ds, batch_size=5, shuffle=False)
    total = sum(len(labels) for _, labels in loader)
    assert total == 23
    assert len(loader) == 5  # ceil(23/5)


def test_loader_drop_last():
    ds = make_dataset(23)
    loader = DataLoader(ds, batch_size=5, shuffle=False, drop_last=True)
    sizes = [len(labels) for _, labels in loader]
    assert sizes == [5, 5, 5, 5]
    assert len(loader) == 4


def test_loader_shuffle_changes_order_but_not_content():
    ds = make_dataset(16)
    ordered = DataLoader(ds, 16, shuffle=False)
    shuffled = DataLoader(ds, 16, shuffle=True, seed=0)
    (x1, y1), (x2, y2) = next(iter(ordered)), next(iter(shuffled))
    assert not np.array_equal(y1, y2) or not np.array_equal(x1, x2)
    assert sorted(y1.tolist()) == sorted(y2.tolist())


def test_loader_seeded_shuffle_reproducible():
    ds = make_dataset(16)
    l1 = DataLoader(ds, 4, shuffle=True, seed=42)
    l2 = DataLoader(ds, 4, shuffle=True, seed=42)
    for (_, y1), (_, y2) in zip(l1, l2):
        np.testing.assert_array_equal(y1, y2)


def test_loader_epochs_differ_with_shuffle():
    ds = make_dataset(32)
    loader = DataLoader(ds, 32, shuffle=True, seed=1)
    first = next(iter(loader))[1]
    second = next(iter(loader))[1]
    assert not np.array_equal(first, second)


def test_loader_batch_types():
    loader = DataLoader(make_dataset(8), 4, shuffle=False)
    images, labels = next(iter(loader))
    assert images.dtype == np.float64
    assert labels.dtype == np.int64


def test_loader_builds_a_float64_batch_with_one_copy():
    """Stacking already yields float64; the cast must not copy it again."""
    ds = ArrayDataset(
        np.random.default_rng(0).normal(size=(100, 3, 12, 12)), np.zeros(100, int)
    )
    loader = DataLoader(ds, 100, shuffle=False)
    next(iter(loader))  # warm
    tracemalloc.start()
    try:
        images, _ = next(iter(loader))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * images.nbytes  # two copies peaked at 2.05x
    assert images.dtype == np.float64
    assert np.array_equal(images, ds.images)


def test_loader_casts_other_dtypes_to_float64():
    ds = ArrayDataset(
        np.arange(24.0).reshape(2, 3, 2, 2),
        [0, 1],
        transform=lambda image: image.astype(np.float32),
    )
    images, _ = next(iter(DataLoader(ds, 2, shuffle=False)))
    assert images.dtype == np.float64
    assert np.array_equal(images, np.arange(24.0).reshape(2, 3, 2, 2))


def test_loader_invalid_batch_size():
    with pytest.raises(ValueError):
        DataLoader(make_dataset(4), 0)


# -- Transforms ------------------------------------------------------------------------


def test_normalize():
    t = Normalize(mean=[1.0], std=[2.0])
    out = t(np.full((1, 2, 2), 3.0))
    np.testing.assert_allclose(out, 1.0)


def test_normalize_channel_mismatch():
    t = Normalize(mean=[0.0, 0.0], std=[1.0, 1.0])
    with pytest.raises(ValueError):
        t(np.zeros((3, 2, 2)))


def test_normalize_nonpositive_std():
    with pytest.raises(ValueError):
        Normalize(mean=[0.0], std=[0.0])


def test_random_crop_preserves_shape(rng):
    t = RandomCrop(8, padding=2, rng=rng)
    out = t(rng.normal(size=(3, 8, 8)))
    assert out.shape == (3, 8, 8)


def test_random_crop_zero_padding_identity(rng):
    x = rng.normal(size=(3, 8, 8))
    out = RandomCrop(8, padding=0, rng=rng)(x)
    np.testing.assert_array_equal(out, x)


def test_random_crop_wrong_size_raises(rng):
    with pytest.raises(ValueError):
        RandomCrop(8, rng=rng)(np.zeros((3, 6, 6)))


def test_random_flip_probability_one_flips(rng):
    x = np.arange(8, dtype=float).reshape(1, 2, 4)
    out = RandomHorizontalFlip(p=1.0, rng=rng)(x)
    np.testing.assert_array_equal(out, x[:, :, ::-1])


def test_random_flip_probability_zero_identity(rng):
    x = np.arange(8, dtype=float).reshape(1, 2, 4)
    out = RandomHorizontalFlip(p=0.0, rng=rng)(x)
    np.testing.assert_array_equal(out, x)


def test_gaussian_noise_zero_sigma_identity(rng):
    x = np.ones((1, 2, 2))
    assert GaussianNoise(0.0, rng=rng)(x) is x


def test_gaussian_noise_changes_values(rng):
    x = np.zeros((1, 4, 4))
    out = GaussianNoise(1.0, rng=rng)(x)
    assert np.any(out != 0)


def test_compose_applies_in_order():
    t = Compose([lambda x: x + 1, lambda x: x * 2])
    np.testing.assert_allclose(t(np.zeros(2)), 2.0)
