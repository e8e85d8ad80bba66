"""Toy shape dataset and its binary container."""

import numpy as np
import pytest

from helpers import make_image
from mclink.dataset import (
    CLASS_NAMES,
    DATASET_MAGIC,
    Dataset,
    DatasetFormatError,
    load_dataset,
    make_dataset,
    one_hot,
    save_dataset,
)


class TestImages:
    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        for label in range(4):
            img = make_image(rng, label)
            assert img.shape == (16, 16)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_classes_have_distinct_structure(self):
        rng = np.random.default_rng(1)
        # noise-free, unshifted exemplars disagree pairwise on many pixels
        base = [make_image(rng, c, noise_std=0.0, max_shift=0) for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(base[i] - base[j]).mean() > 0.2

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            make_image(np.random.default_rng(0), 4)

    def test_translation_bounded(self):
        rng = np.random.default_rng(2)
        clean = make_image(rng, 2, noise_std=0.0, max_shift=0)
        for _ in range(20):
            shifted = make_image(rng, 2, noise_std=0.0, max_shift=2)
            assert shifted.sum() == pytest.approx(clean.sum())   # disk never clipped


def ref_make_dataset(rng, count):
    """The per-image loop the table kernel replaced, kept as the reference."""
    images = np.empty((count, 16 * 16), dtype=float)
    labels = np.empty(count, dtype=np.int64)
    for i in range(count):
        label = i % len(CLASS_NAMES)
        images[i] = make_image(rng, label).reshape(-1)
        labels[i] = label
    return images, labels


class TestDataset:
    @pytest.mark.parametrize("count", [0, 7, 40])
    def test_matches_per_image_reference_bit_for_bit(self, count):
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        got = make_dataset(got_rng, count)
        images, labels = ref_make_dataset(want_rng, count)
        assert got.images.shape == images.shape and got.images.tobytes() == images.tobytes()
        assert got.labels.dtype == labels.dtype and got.labels.tobytes() == labels.tobytes()
        assert got_rng.random() == want_rng.random()     # the same draws were spent

    def test_balanced_and_deterministic(self):
        a = make_dataset(np.random.default_rng(5), 400)
        b = make_dataset(np.random.default_rng(5), 400)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        counts = np.bincount(a.labels)
        assert counts.tolist() == [100, 100, 100, 100]
        assert a.num_classes == len(CLASS_NAMES)


class TestContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = make_dataset(np.random.default_rng(7), 40)
        path = tmp_path / "toy.ds"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.images, ds.images.astype(np.float32).astype(float))
        assert (back.height, back.width, back.channels) == (16, 16, 1)
        # same content twice -> same bytes
        path2 = tmp_path / "toy2.ds"
        save_dataset(path2, ds)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.ds"
        save_dataset(path, make_dataset(np.random.default_rng(0), 0))
        back = load_dataset(path)
        assert back.images.shape == (0, 256) and back.labels.shape == (0,)
        assert (back.height, back.width, back.channels) == (16, 16, 1)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ds"
        path.write_bytes(b"GIF89a" + b"\x00" * 64)
        with pytest.raises(DatasetFormatError, match="not a dataset"):
            load_dataset(path)

    def test_rejects_version_mismatch(self, tmp_path):
        ds = make_dataset(np.random.default_rng(0), 4)
        path = tmp_path / "toy.ds"
        save_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        blob[8] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(path)

    def test_rejects_truncation(self, tmp_path):
        ds = make_dataset(np.random.default_rng(0), 4)
        path = tmp_path / "toy.ds"
        save_dataset(path, ds)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    def test_rejects_a_file_ending_in_the_header_naming_it(self, tmp_path):
        path = tmp_path / "toy.ds"
        save_dataset(path, make_dataset(np.random.default_rng(0), 4))
        path.write_bytes(path.read_bytes()[:len(DATASET_MAGIC) + 11])
        with pytest.raises(DatasetFormatError, match="truncated") as info:
            load_dataset(path)
        assert str(path) in str(info.value)

    def test_rejects_bytes_after_the_labels_naming_the_file(self, tmp_path):
        path = tmp_path / "toy.ds"
        save_dataset(path, make_dataset(np.random.default_rng(0), 4))
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(DatasetFormatError, match="3 byte") as info:
            load_dataset(path)
        assert str(path) in str(info.value)


def test_one_hot():
    z = one_hot(np.array([0, 2]), 3)
    assert np.array_equal(z, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
