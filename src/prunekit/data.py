"""Dataset ingestion: synthetic class-conditional images and CIFAR-10 binaries.
A ``Dataset`` derives its normalization stats from its train split."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .tensor import Tensor

CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes
CIFAR_BATCH_RECORDS = 10000


class DataError(ValueError):
    """Dataset file or parameter is malformed."""


@dataclass
class Dataset:
    """Train/test image splits in [0,1]. Both splits are normalized by the
    per-channel ``mean`` and ``std`` of the train split, which construction
    computes, so a nonempty train split is required."""
    train_images: np.ndarray  # [B,C,H,W] float64 in [0,1]
    train_labels: np.ndarray  # 1-d, integer
    test_images: np.ndarray
    test_labels: np.ndarray
    num_classes: int
    mean: np.ndarray = field(init=False)
    std: np.ndarray = field(init=False)

    def __post_init__(self):
        for name, imgs, labels in (("train", self.train_images, self.train_labels),
                                   ("test", self.test_images, self.test_labels)):
            if imgs.ndim != 4 or len(labels) != len(imgs):
                raise DataError(f"{name} split images/labels are inconsistent")
            if imgs.shape[1:] != self.train_images.shape[1:]:
                raise DataError(f"{name} images are {list(imgs.shape[1:])} [C,H,W], "
                                f"train images are {list(self.train_images.shape[1:])}")
            if not (isinstance(labels, np.ndarray) and labels.ndim == 1
                    and np.issubdtype(labels.dtype, np.integer)):
                raise DataError(f"{name} labels must be a 1-d integer array, got "
                                f"{np.shape(labels)} {np.asarray(labels).dtype}")
            if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise DataError(f"{name} split has labels outside [0, {self.num_classes})")
            if not np.isfinite(imgs).all():
                raise DataError(f"{name} split contains non-finite pixels")
        if not len(self.train_images):
            raise DataError("train split is empty: no images to normalize by")
        self.mean = self.train_images.mean(axis=(0, 2, 3))
        self.std = np.maximum(self.train_images.std(axis=(0, 2, 3)), 1e-6)

    @property
    def image_shape(self) -> tuple:
        return self.train_images.shape[1:]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Split ``name``'s images and labels as stored; ``DataError`` if empty."""
        if name not in ("train", "test"):
            raise DataError(f"unknown split {name!r}")
        imgs, labels = getattr(self, f"{name}_images"), getattr(self, f"{name}_labels")
        if not len(imgs):
            raise DataError(f"split {name!r} is empty")
        return imgs, labels

    def normalized(self, name: str, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``rows`` of split ``name`` (all by default), normalized per channel, and
        their labels. Only those rows are copied, with the bits of the same rows of the
        whole normalized split."""
        imgs, labels = self.split(name)
        m = self.mean.reshape(1, -1, 1, 1)
        s = self.std.reshape(1, -1, 1, 1)
        return (imgs[rows] - m) / s, labels[rows]

    def sample_batch(self, name: str, batch_size: int,
                     rng: np.random.Generator) -> tuple[Tensor, np.ndarray]:
        idx = sample_indices(len(self.split(name)[1]), batch_size, rng)
        imgs, labels = self.normalized(name, idx)
        return Tensor(imgs), labels

    def iter_batches(self, name: str, batch_size: int,
                     rng: np.random.Generator) -> Iterator[tuple[Tensor, np.ndarray]]:
        """One pass over the split in an order shuffled by ``rng``."""
        for idx in epoch_indices(len(self.split(name)[1]), batch_size, rng):
            imgs, labels = self.normalized(name, idx)
            yield Tensor(imgs), labels


# Batch index draws. Code that indexes arrays derived from a split (such as
# cached activations) calls these too, so it consumes the rng exactly as the
# Dataset methods above do and picks the same examples.

def sample_indices(n: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of one batch drawn with replacement from ``n`` examples."""
    return rng.integers(0, n, size=min(batch_size, n))


def epoch_indices(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Index batches of one pass over ``n`` examples in an order shuffled by ``rng``."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def synth_dataset(classes: int, per_class: int, image_size: int = 12, seed: int = 0,
                  test_per_class: Optional[int] = None) -> Dataset:
    """Class-conditional structured 3-channel images: each class gets its own grating
    frequency/orientation, blob position, and channel emphasis, plus noise.
    Deterministic for a fixed seed; label histograms are exactly uniform.

    The train split comes first, then the test split, each class by class. The
    draw order is part of the contract, since it fixes every byte of the data:
    per image, the grating phase (``uniform``), the blob's x and y jitter (one
    ``normal`` pair), the amplitude (``uniform``), then its [3,H,W] noise
    (``normal``). The draws run in one loop; the images are computed from them
    all at once."""
    if classes < 2:
        raise DataError(f"need at least 2 classes, got {classes}")
    if per_class < 1 or image_size < 4:
        raise DataError("degenerate dataset size")
    if test_per_class is None:
        test_per_class = max(1, per_class // 5)
    if test_per_class < 1:
        raise DataError(f"test_per_class must be >= 1, got {test_per_class}")
    rng = np.random.default_rng(seed)

    yy, xx = np.meshgrid(np.linspace(0, 1, image_size), np.linspace(0, 1, image_size),
                         indexing="ij")
    # class constants on axis 0 of [classes, count, H, W] maps
    k = np.arange(classes).reshape(-1, 1, 1, 1)
    freq = 1.5 + k
    theta = np.pi * k / classes
    u = xx * np.cos(theta) + yy * np.sin(theta)
    cx = 0.5 + 0.28 * np.cos(2 * np.pi * k / classes)
    cy = 0.5 + 0.28 * np.sin(2 * np.pi * k / classes)
    ch_w = 0.65 + 0.35 * (np.arange(3) == (k[..., None] % 3))  # channel on the last axis

    def make(count_per_class: int) -> tuple[np.ndarray, np.ndarray]:
        n = classes * count_per_class
        images = np.empty((n, 3, image_size, image_size))
        draws = np.empty((n, 4))  # phase, jx, jy, amp
        for i in range(n):
            draws[i, 0] = rng.uniform(0, 2 * np.pi)
            draws[i, 1:3] = rng.normal(0, 0.09, size=2)
            draws[i, 3] = rng.uniform(0.8, 1.2)
            images[i] = rng.normal(0, 0.30, size=images.shape[1:])
        phase, jx, jy, amp = draws.T.reshape(4, classes, count_per_class, 1, 1)
        # base = 0.24 * grating + 0.32 * amp * blob, where
        #   grating = 0.5 + 0.5 * sin(2 pi freq u + phase)
        #   blob = exp(-((xx - cx - jx)^2 + (yy - cy - jy)^2) / (2 * 0.12^2)),
        # computed in place on two [classes, count, H, W] buffers, so that the
        # set-up's transient memory stays small
        base = 2 * np.pi * freq * u + phase
        np.sin(base, out=base)
        base *= 0.5
        base += 0.5
        base *= 0.24
        blob = xx - cx - jx
        np.square(blob, out=blob)
        blob += np.square(yy - cy - jy)
        blob /= 2 * 0.12 ** 2
        np.negative(blob, out=blob)
        np.exp(blob, out=blob)
        blob *= 0.32 * amp
        base += blob
        # each image is ch_w * base plus its noise: add the structure into the
        # noise one channel at a time
        by_class = images.reshape(classes, count_per_class, 3, image_size, image_size)
        for c in range(3):
            by_class[:, :, c] += ch_w[..., c] * base
        np.clip(images, 0.0, 1.0, out=images)
        return images, np.repeat(np.arange(classes), count_per_class)

    train_images, train_labels = make(per_class)
    test_images, test_labels = make(test_per_class)
    return Dataset(train_images, train_labels, test_images, test_labels, classes)


def _read_cifar_file(path: str) -> np.ndarray:
    """The file's raw [records, 3073] uint8 table, label byte first."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) != CIFAR_RECORD * CIFAR_BATCH_RECORDS:
        raise DataError(
            f"{path}: expected {CIFAR_RECORD * CIFAR_BATCH_RECORDS} bytes, got {len(blob)}")
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(CIFAR_BATCH_RECORDS, CIFAR_RECORD)
    if raw[:, 0].max() > 9:
        raise DataError(f"{path}: label byte {raw[:, 0].max()} > 9")
    return raw


def _cifar_split(raw: np.ndarray, cap: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """Cap the uint8 records first: only the kept images become float64."""
    raw = raw[:cap]
    images = raw[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, raw[:, 0].astype(np.int64)


def load_cifar10(data_dir: str, train_cap: Optional[int] = None,
                 test_cap: Optional[int] = None) -> Dataset:
    """Read the standard CIFAR-10 binary batches (data_batch_1..5.bin, test_batch.bin),
    keeping the first ``train_cap``/``test_cap`` records of a split when given."""
    for name, cap in (("train_cap", train_cap), ("test_cap", test_cap)):
        if cap is not None and cap < 1:
            raise DataError(f"{name} must be >= 1, got {cap}")
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    paths = [os.path.join(data_dir, name) for name in names]
    for path in paths:
        if not os.path.exists(path):
            raise DataError(f"missing CIFAR batch file {path}")
    train_images, train_labels = _cifar_split(
        np.concatenate([_read_cifar_file(p) for p in paths[:5]]), train_cap)
    test_images, test_labels = _cifar_split(_read_cifar_file(paths[5]), test_cap)
    return Dataset(train_images, train_labels, test_images, test_labels, 10)
