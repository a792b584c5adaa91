import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunekit as pk
from prunekit.cli import main
from prunekit.data import (CIFAR_BATCH_RECORDS, CIFAR_RECORD, DataError, epoch_indices,
                           load_cifar10, sample_indices, synth_dataset)


def _reference_synth(classes, per_class, image_size, seed, test_per_class):
    """``synth_dataset``'s images and labels built one image per iteration, in
    the draw order of its contract: (train images, train labels, test images,
    test labels)."""
    if test_per_class is None:
        test_per_class = max(1, per_class // 5)
    rng = np.random.default_rng(seed)

    yy, xx = np.meshgrid(np.linspace(0, 1, image_size), np.linspace(0, 1, image_size),
                         indexing="ij")

    def make(count_per_class):
        images = np.zeros((classes * count_per_class, 3, image_size, image_size))
        labels = np.zeros(classes * count_per_class, dtype=np.int64)
        i = 0
        for k in range(classes):
            freq = 1.5 + k
            theta = np.pi * k / classes
            u = xx * np.cos(theta) + yy * np.sin(theta)
            cx = 0.5 + 0.28 * np.cos(2 * np.pi * k / classes)
            cy = 0.5 + 0.28 * np.sin(2 * np.pi * k / classes)
            ch_w = 0.65 + 0.35 * (np.arange(3) == (k % 3))
            for _ in range(count_per_class):
                phase = rng.uniform(0, 2 * np.pi)
                jx, jy = rng.normal(0, 0.09, size=2)
                amp = rng.uniform(0.8, 1.2)
                grating = 0.5 + 0.5 * np.sin(2 * np.pi * freq * u + phase)
                blob = np.exp(-(((xx - cx - jx) ** 2 + (yy - cy - jy) ** 2)
                                / (2 * 0.12 ** 2)))
                base = 0.24 * grating + 0.32 * amp * blob
                img = ch_w[:, None, None] * base[None]
                img += rng.normal(0, 0.30, size=img.shape)
                images[i] = np.clip(img, 0.0, 1.0)
                labels[i] = k
                i += 1
        return images, labels

    return make(per_class) + make(test_per_class)


def _assert_synth_equals_reference(classes, per_class, image_size, seed, test_per_class):
    ds = synth_dataset(classes, per_class, image_size=image_size, seed=seed,
                       test_per_class=test_per_class)
    got = (ds.train_images, ds.train_labels, ds.test_images, ds.test_labels)
    want = _reference_synth(classes, per_class, image_size, seed, test_per_class)
    for name, a, b in zip(("train images", "train labels", "test images", "test labels"),
                          got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    mean, std = _reference_stats(want[0])
    assert ds.mean.tobytes() == mean.tobytes() and ds.std.tobytes() == std.tobytes()


class TestSynthOracle:
    """``synth_dataset`` computes its images from all draws at once; every byte
    equals the one-image-at-a-time reference."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(classes=st.integers(2, 5), per_class=st.integers(1, 12),
           test_per_class=st.one_of(st.none(), st.integers(1, 5)),
           image_size=st.integers(4, 20), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_image_reference(self, classes, per_class, test_per_class,
                                        image_size, seed):
        _assert_synth_equals_reference(classes, per_class, image_size, seed, test_per_class)

    @pytest.mark.parametrize("classes,per_class,image_size,seed,test_per_class", [
        (10, 6, 32, 0, 2),     # CIFAR-sized images
        (3, 200, 12, 0, 80),   # the acceptance set
    ])
    def test_fixed_cases(self, classes, per_class, image_size, seed, test_per_class):
        _assert_synth_equals_reference(classes, per_class, image_size, seed, test_per_class)


class TestSynthDataset:
    def test_same_seed_bit_identical(self):
        a = synth_dataset(3, 20, image_size=8, seed=11)
        b = synth_dataset(3, 20, image_size=8, seed=11)
        assert a.train_images.tobytes() == b.train_images.tobytes()
        assert a.test_images.tobytes() == b.test_images.tobytes()
        assert (a.train_labels == b.train_labels).all()

    def test_different_seed_differs(self):
        a = synth_dataset(3, 20, image_size=8, seed=1)
        b = synth_dataset(3, 20, image_size=8, seed=2)
        assert a.train_images.tobytes() != b.train_images.tobytes()

    def test_label_histogram_exactly_uniform(self):
        ds = synth_dataset(4, 25, image_size=8, seed=0, test_per_class=7)
        np.testing.assert_array_equal(np.bincount(ds.train_labels), [25] * 4)
        np.testing.assert_array_equal(np.bincount(ds.test_labels), [7] * 4)

    def test_pixels_in_unit_interval(self):
        ds = synth_dataset(3, 10, image_size=8, seed=0)
        for imgs in (ds.train_images, ds.test_images):
            assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DataError):
            synth_dataset(1, 10)
        with pytest.raises(DataError):
            synth_dataset(3, 0)
        with pytest.raises(DataError):
            synth_dataset(3, 10, image_size=2)
        # -1 once raised numpy's untyped error; 0 gave an empty test split
        for test_per_class in (0, -1):
            with pytest.raises(DataError, match="test_per_class must be >= 1"):
                synth_dataset(3, 10, test_per_class=test_per_class)

    def test_learnable_by_reference_network(self):
        # the reference CNN should reach < 10% test error within 30 epochs
        ds = synth_dataset(3, 500, image_size=12, seed=0, test_per_class=100)
        rng = np.random.default_rng(0)
        net = pk.Network.initialize(pk.reference_specs(3, 12, 3),
                                    ds.image_shape, 3, rng)
        log = pk.train_baseline(net, ds, epochs=30, eta=0.02, seed=0)
        best = min(e["test_error"] for e in log)
        assert best < 0.10, f"best test error {best:.3f}"


def _write_cifar_dir(tmp_path, rng):
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    blobs = {}
    for name in names:
        raw = rng.integers(0, 256, size=CIFAR_RECORD * CIFAR_BATCH_RECORDS,
                           dtype=np.uint8).reshape(CIFAR_BATCH_RECORDS, CIFAR_RECORD)
        raw[:, 0] = rng.integers(0, 10, size=CIFAR_BATCH_RECORDS)
        (tmp_path / name).write_bytes(raw.tobytes())
        blobs[name] = raw
    return blobs


class TestCifar10:
    def test_batch_file_size_is_format_arithmetic(self, tmp_path, rng):
        _write_cifar_dir(tmp_path, rng)
        assert (tmp_path / "data_batch_1.bin").stat().st_size == 30730000

    def test_record_zero_label_and_pixel_bytes(self, tmp_path, rng):
        blobs = _write_cifar_dir(tmp_path, rng)
        ds = load_cifar10(tmp_path)
        raw = blobs["data_batch_1.bin"]
        assert ds.train_labels[0] == raw[0, 0]
        # pixel (0,0) of the red plane of record 0 is byte 1 of the file
        assert ds.train_images[0, 0, 0, 0] == raw[0, 1] / 255.0
        # blue plane starts after two 1024-byte planes
        assert ds.train_images[0, 2, 0, 0] == raw[0, 1 + 2048] / 255.0

    def test_counts_and_caps(self, tmp_path, rng):
        _write_cifar_dir(tmp_path, rng)
        ds = load_cifar10(tmp_path, train_cap=123, test_cap=45)
        assert len(ds.train_images) == 123
        assert len(ds.test_images) == 45

    def test_wrong_file_size_rejected(self, tmp_path, rng):
        _write_cifar_dir(tmp_path, rng)
        path = tmp_path / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match="bytes"):
            load_cifar10(tmp_path)

    def test_label_byte_out_of_range_rejected(self, tmp_path, rng):
        _write_cifar_dir(tmp_path, rng)
        path = tmp_path / "data_batch_1.bin"
        blob = bytearray(path.read_bytes())
        blob[0] = 11
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="label byte"):
            load_cifar10(tmp_path)

    @pytest.mark.parametrize("caps", [{"train_cap": -5}, {"test_cap": -5}])
    def test_negative_cap_rejected(self, tmp_path, rng, caps):
        # raw[:-5] once dropped the last five records silently
        _write_cifar_dir(tmp_path, rng)
        with pytest.raises(DataError, match=f"{next(iter(caps))} must be >= 1"):
            load_cifar10(tmp_path, **caps)

    @pytest.mark.parametrize("flag", ["--train-cap", "--test-cap"])
    def test_negative_cap_flag_single_line_error(self, tmp_path, rng, capsys, flag):
        _write_cifar_dir(tmp_path, rng)
        rc = main(["eval", "--model", str(tmp_path / "unused.prnk"), "--data", "cifar",
                   "--data-dir", str(tmp_path), flag, "-5"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "cap must be >= 1" in err and "\n" not in err

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_cifar10(tmp_path)

    def test_missing_test_batch_rejected(self, tmp_path, rng):
        _write_cifar_dir(tmp_path, rng)
        (tmp_path / "test_batch.bin").unlink()
        with pytest.raises(DataError, match="missing.*test_batch.bin"):
            load_cifar10(tmp_path, train_cap=10, test_cap=10)

    def test_caps_apply_before_float_conversion(self, tmp_path, rng):
        blobs = _write_cifar_dir(tmp_path, rng)
        tracemalloc.start()
        try:
            ds = load_cifar10(tmp_path, train_cap=10, test_cap=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the raw uint8 records of the five train files are 154 MB; converting
        # all 50 000 train images to float64 first would need 1.2 GB more
        assert peak < 600e6, f"peak {peak / 1e6:.0f} MB"
        assert ds.train_images.shape == (10, 3, 32, 32)
        assert ds.test_images[9, 1, 0, 0] == blobs["test_batch.bin"][9, 1 + 1024] / 255.0


class TestDatasetContainer:
    def test_batches_cover_split_deterministically(self, tiny_dataset):
        imgs, labels = tiny_dataset.normalized("train")
        index = {img.tobytes(): i for i, img in enumerate(imgs)}
        assert len(index) == len(imgs)

        def order(seed):
            seen = []
            for xb, yb in tiny_dataset.iter_batches("train", 32, np.random.default_rng(seed)):
                seen += [index[img.tobytes()] for img in xb.data]
                np.testing.assert_array_equal(yb, labels[seen[-len(yb):]])
            return seen

        seen = order(0)
        assert sorted(seen) == list(range(len(imgs)))  # each example exactly once
        assert order(0) == seen

    def test_sample_batch_is_normalized(self, tiny_dataset, rng):
        xb, _ = tiny_dataset.sample_batch("train", 64, rng)
        assert abs(xb.data.mean()) < 0.5

    def test_unknown_split_rejected(self, tiny_dataset):
        with pytest.raises(DataError, match="unknown split"):
            tiny_dataset.split("validation")

    def test_batches_are_rows_of_the_normalized_split(self, tiny_dataset):
        # batches normalize only the rows they hand out; the bits must be those
        # of the same rows of the whole normalized split, for the same rng
        imgs, labels = tiny_dataset.normalized("train")
        assert len(imgs) % 32  # the last batch of an epoch is short
        xb, yb = tiny_dataset.sample_batch("train", 32, np.random.default_rng(3))
        idx = sample_indices(len(imgs), 32, np.random.default_rng(3))
        assert xb.data.tobytes() == imgs[idx].tobytes()
        np.testing.assert_array_equal(yb, labels[idx])
        batches = list(tiny_dataset.iter_batches("train", 32, np.random.default_rng(4)))
        order = list(epoch_indices(len(imgs), 32, np.random.default_rng(4)))
        assert [len(y) for _, y in batches] == [len(i) for i in order] == [32, 32, 26]
        for (xb, yb), idx in zip(batches, order):
            assert xb.data.tobytes() == imgs[idx].tobytes()
            np.testing.assert_array_equal(yb, labels[idx])

    def test_empty_split_rejected_by_batches(self, tiny_dataset):
        ds = replace(tiny_dataset, test_images=tiny_dataset.test_images[:0],
                     test_labels=tiny_dataset.test_labels[:0])
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="empty"):
            ds.sample_batch("test", 4, rng)
        with pytest.raises(DataError, match="empty"):
            next(ds.iter_batches("test", 4, rng))


def _reference_stats(train_images):
    """Per-channel mean, and std floored at 1e-6, of ``train_images``."""
    return (train_images.mean(axis=(0, 2, 3)),
            np.maximum(train_images.std(axis=(0, 2, 3)), 1e-6))


class TestDerivedStats:
    def _assert_stats_of(self, ds, train_images):
        mean, std = _reference_stats(train_images)
        assert ds.mean.tobytes() == mean.tobytes() and ds.std.tobytes() == std.tobytes()

    def test_synth_dataset(self, tiny_dataset):
        self._assert_stats_of(tiny_dataset, tiny_dataset.train_images)

    def test_cifar_directory(self, tmp_path, rng):
        _write_cifar_dir(tmp_path, rng)
        ds = load_cifar10(str(tmp_path), train_cap=40, test_cap=5)
        self._assert_stats_of(ds, ds.train_images)

    def test_replaced_train_images_give_their_stats(self, tiny_dataset, rng):
        x = rng.uniform(0.2, 0.6, size=(7, 3, 8, 8))
        ds = replace(tiny_dataset, train_images=x, train_labels=tiny_dataset.train_labels[:7])
        self._assert_stats_of(ds, x)
        # the test split is normalized by the new train split's stats
        m, s = ds.mean.reshape(1, -1, 1, 1), ds.std.reshape(1, -1, 1, 1)
        np.testing.assert_array_equal(ds.normalized("test")[0], (ds.test_images - m) / s)

    def test_empty_train_split_rejected(self, tiny_dataset):
        # there is nothing to normalize by
        with pytest.raises(DataError, match="train split is empty"):
            replace(tiny_dataset, train_images=tiny_dataset.train_images[:0],
                    train_labels=tiny_dataset.train_labels[:0])


class TestDatasetBoundary:
    def test_test_images_of_another_shape_rejected(self, tiny_dataset):
        # once a ShapeError from forward on the first evaluate chunk
        with pytest.raises(DataError, match=r"test images are \[3, 6, 6\]"):
            replace(tiny_dataset, test_images=tiny_dataset.test_images[:, :, :6, :6])
        with pytest.raises(DataError, match=r"test images are \[1, 8, 8\]"):
            replace(tiny_dataset, test_images=tiny_dataset.test_images[:, :1])

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_labels_not_1d_integers_rejected(self, tiny_dataset, split):
        # float labels once passed evaluate, then train_baseline raised IndexError
        labels = getattr(tiny_dataset, f"{split}_labels")
        for bad in (labels.astype(np.float64), labels.astype(bool), labels.reshape(-1, 1),
                    labels.tolist()):
            with pytest.raises(DataError, match=f"{split} labels must be a 1-d integer"):
                replace(tiny_dataset, **{f"{split}_labels": bad})

    def test_other_integer_labels_accepted(self, tiny_dataset):
        labels = tiny_dataset.train_labels.astype(np.uint8)
        assert replace(tiny_dataset, train_labels=labels).train_labels is labels
