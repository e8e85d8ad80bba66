"""Procedural 16x16 grayscale shape dataset and its binary container.

Four classes -- horizontal stripes, vertical stripes, a filled disk, and a
checkerboard -- rendered at random integer translations of up to 2 px with
additive pixel noise, clipped back to [0, 1]. Small enough to train dense
models in seconds while still carrying class structure a starved channel
can destroy.

Container layout (all little-endian):
    magic   8 bytes  b"MCLDATA\\0"
    version uint32
    H, W, C uint32 each
    count   uint32
    pixels  count*H*W*C float32, row-major
    labels  count uint8
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CLASS_NAMES = ("stripes_h", "stripes_v", "disk", "checkerboard")
IMAGE_SIZE = 16
STRIPE_WIDTH = 4
CHECKER_TILE = 4
DISK_RADIUS = 5.0
PIXEL_NOISE_STD = 0.15
MAX_SHIFT = 2

DATASET_MAGIC = b"MCLDATA\x00"
DATASET_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Images as (N, H*W*C) rows plus integer labels."""

    images: np.ndarray
    labels: np.ndarray
    height: int = IMAGE_SIZE
    width: int = IMAGE_SIZE
    channels: int = 1

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _base_pattern(label: int, size: int) -> np.ndarray:
    rows, cols = np.mgrid[0:size, 0:size]
    if label == 0:      # horizontal stripes
        return ((rows // STRIPE_WIDTH) % 2 == 0).astype(float)
    if label == 1:      # vertical stripes
        return ((cols // STRIPE_WIDTH) % 2 == 0).astype(float)
    if label == 2:      # filled disk
        center = (size - 1) / 2.0
        return (((rows - center) ** 2 + (cols - center) ** 2) <= DISK_RADIUS ** 2).astype(float)
    if label == 3:      # checkerboard
        return (((rows // CHECKER_TILE) + (cols // CHECKER_TILE)) % 2 == 0).astype(float)
    raise ValueError(f"label must be in [0, {len(CLASS_NAMES)}), got {label}")


def make_dataset(rng: np.random.Generator, count: int) -> Dataset:
    """Balanced dataset with labels cycling through the four classes.

    Each image takes two draws, in this order: its (dy, dx) shift, then its
    pixel noise. The bytes equal a loop that rolls, noises and clips one
    image at a time (the tests keep it as the reference); the shifted
    patterns come from a table built once per call, and the clip runs once
    on the whole array.
    """
    size, shifts = IMAGE_SIZE, range(-MAX_SHIFT, MAX_SHIFT + 1)
    # table[label, dy + MAX_SHIFT, dx + MAX_SHIFT] = the pattern rolled by (dy, dx)
    table = np.array([[[np.roll(_base_pattern(label, size), (dy, dx), axis=(0, 1)).reshape(-1)
                        for dx in shifts] for dy in shifts]
                      for label in range(len(CLASS_NAMES))])
    images = np.empty((count, size * size), dtype=float)
    labels = np.arange(count, dtype=np.int64) % len(CLASS_NAMES)
    for row, label in zip(images, labels):
        dy, dx = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2) + MAX_SHIFT
        np.multiply(PIXEL_NOISE_STD, rng.standard_normal(size * size), out=row)
        row += table[label, dy, dx]
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images=images, labels=labels, height=size, width=size, channels=1)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    z = np.zeros((len(labels), num_classes))
    z[np.arange(len(labels)), labels] = 1.0
    return z


class DatasetFormatError(ValueError):
    """Bad magic, version, or a truncated or overlong dataset container."""


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIII", DATASET_VERSION, ds.height, ds.width,
                             ds.channels, len(ds)))
        fh.write(np.ascontiguousarray(ds.images, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype=np.uint8).tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise DatasetFormatError(f"{path}: not a dataset container")
        fixed = fh.read(20)
        if len(fixed) != 20:
            raise DatasetFormatError(f"{path}: truncated container")
        version, height, width, channels, count = struct.unpack("<IIIII", fixed)
        if version != DATASET_VERSION:
            raise DatasetFormatError(f"{path}: container version {version}, "
                                     f"expected {DATASET_VERSION}")
        n_px = count * height * width * channels
        pixels = fh.read(4 * n_px)
        labels = fh.read(count)
        if len(pixels) != 4 * n_px or len(labels) != count:
            raise DatasetFormatError(f"{path}: truncated container")
        extra = len(fh.read())
        if extra:
            raise DatasetFormatError(f"{path}: {extra} byte(s) after the labels")
    images = np.frombuffer(pixels, dtype="<f4").astype(float).reshape(
        count, height * width * channels)
    return Dataset(images=images,
                   labels=np.frombuffer(labels, dtype=np.uint8).astype(np.int64),
                   height=height, width=width, channels=channels)
