"""Conventional separate source/channel coding over the molecular link.

The comparison pipeline, standing in for the paper's JPEG + LDPC, has one
fixed codec. Images are averaged over ``DOWNSAMPLE`` x ``DOWNSAMPLE``
blocks and rounded to one bit per block, protected by Hamming(7,4), sent
with on-off keying -- bit 1 releases the full molecule budget, bit 0 stays
silent -- detected against half the signal mean, decoded, reconstructed,
and classified by a dense net trained on clean reconstructions. Rate
parity with the semantic system is by slot count: the codec spends 28
slots per 16x16 image against the semantic frame's 16.

Each codec step (``source_encode``, ``channel_encode``, ``ook_transmit``,
``channel_decode``, ``source_decode``) takes a batch of images or
bitstreams (B, n) and returns one, so a batch of images runs through the
pipeline as one chain of array operations. The transmit side
draws no randomness, so an evaluation source- and channel-codes the test
set once; each noise trial then draws only the OOK channel and runs only
the receiver, on its own generator and concurrently with the other trials
(see :func:`mclink.transceiver.trial_accuracy`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .channel import ChannelParams, observe_frames
from .dataset import Dataset, one_hot
from .nn import DenseNet, Tensor
from .transceiver import standardization_stats, trial_accuracy

DOWNSAMPLE = 4      # block side of the source codec's averaging

# Systematic Hamming(7,4): G = [I4 | P], H = [P^T | I3].
_HAMMING_P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
_HAMMING_G = np.hstack([np.eye(4, dtype=np.uint8), _HAMMING_P])
_HAMMING_H = np.hstack([_HAMMING_P.T, np.eye(3, dtype=np.uint8)])
# syndrome (as little-endian integer) -> the single-bit error it names; row 0 flips nothing
_SYNDROME_FLIP = np.zeros((8, 7), dtype=np.uint8)
_SYNDROME_FLIP[_HAMMING_H.T @ [1, 2, 4], np.arange(7)] = 1


@dataclass(frozen=True)
class CodecConfig:
    """The baseline's one codec, which has no settings. The benchmark still
    passes one to :func:`train_baseline_classifier` and
    :func:`baseline_evaluate`, so both keep the parameter until it stops."""


def _source_grid(image_shape) -> tuple[int, int]:
    """Rows and columns of the downsampled image; DOWNSAMPLE must divide both dims."""
    h, w = image_shape
    if h % DOWNSAMPLE or w % DOWNSAMPLE:
        raise ValueError(f"image dims {h}x{w} not divisible by downsample factor {DOWNSAMPLE}")
    return h // DOWNSAMPLE, w // DOWNSAMPLE


def source_encode(images: np.ndarray, image_shape=(16, 16)) -> np.ndarray:
    """Downsample by block mean and quantize to one bit per block, round(mean)."""
    rows, cols = _source_grid(image_shape)
    img = np.asarray(images, dtype=float)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("pixel values must lie in [0, 1]")
    small = img.reshape(len(img), rows, DOWNSAMPLE, cols, DOWNSAMPLE).mean(axis=(2, 4))
    return np.round(small).astype(np.uint8).reshape(len(img), -1)


def source_decode(bits: np.ndarray, image_shape=(16, 16)) -> np.ndarray:
    """Rebuild full-resolution images from source bitstreams."""
    rows, cols = _source_grid(image_shape)
    bits = np.asarray(bits, dtype=float)
    if bits.shape[1] != rows * cols:
        raise ValueError(f"expected {rows * cols} source bits, got {bits.shape[1]}")
    small = bits.reshape(len(bits), rows, cols)
    img = np.repeat(np.repeat(small, DOWNSAMPLE, axis=1), DOWNSAMPLE, axis=2)
    return img.reshape(len(bits), -1)


def source_bit_count(image_shape=(16, 16)) -> int:
    rows, cols = _source_grid(image_shape)
    return rows * cols


def channel_encode(bits: np.ndarray) -> np.ndarray:
    """Hamming(7,4)-code bitstreams, zero-padded to whole blocks."""
    bits = np.asarray(bits, dtype=np.uint8)
    blocks = np.pad(bits, ((0, 0), (0, (-bits.shape[1]) % 4))).reshape(len(bits), -1, 4)
    return (blocks @ _HAMMING_G % 2).astype(np.uint8).reshape(len(bits), -1)


def channel_decode(bits: np.ndarray) -> np.ndarray:
    """Decode Hamming(7,4) bitstreams; corrects one error per block."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[1] % 7:
        raise ValueError("Hamming-coded length must be a multiple of 7")
    blocks = bits.reshape(len(bits), -1, 7)
    syndrome = blocks @ _HAMMING_H.T % 2
    blocks = blocks ^ _SYNDROME_FLIP[syndrome @ [1, 2, 4]]
    return blocks[:, :, :4].reshape(len(bits), -1)


def ook_transmit(rng: np.random.Generator, p: ChannelParams, bits: np.ndarray) -> np.ndarray:
    """On-off key a batch of bitstreams (B, n) over consecutive slots and
    hard-detect them.

    Each stream starts after a silent slot and suffers ISI across its own
    bits. A slot reads 1 when its normalized symbol reaches 0.5, half the
    normalized signal mean.
    """
    return (observe_frames(rng, p, np.asarray(bits, dtype=float)) >= 0.5).astype(np.uint8)


@dataclass
class BaselineClassifier:
    """Dense classifier trained on clean codec reconstructions."""

    net: DenseNet
    input_mean: np.ndarray
    input_std: np.ndarray

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        x = (images - self.input_mean) / self.input_std
        return self.net.forward(Tensor(x)).data


def clean_reconstructions(images: np.ndarray, image_shape=(16, 16)) -> np.ndarray:
    """Codec round trip without a channel, for training and references."""
    return source_decode(source_encode(images, image_shape), image_shape)


CLASSIFIER_CONFIG = nn.TrainConfig(epochs=30, batch_size=64, lr=2e-2)


def train_baseline_classifier(
    rng: np.random.Generator,
    cfg: CodecConfig,
    train_set: Dataset,
) -> BaselineClassifier:
    """Fit the reconstruction classifier on channel-free codec output, all epochs."""
    shape = (train_set.height, train_set.width)
    recon = clean_reconstructions(train_set.images, shape)
    mean, std = standardization_stats(recon)
    x = (recon - mean) / std
    num_classes = train_set.num_classes
    net = DenseNet([x.shape[1], 64, 32, num_classes],
                   ["leaky_relu", "leaky_relu", "softmax"], rng=rng)
    z_all = one_hot(train_set.labels, num_classes)
    nn.train(rng, net.parameters(), len(x),
             lambda rows: nn.cross_entropy(net.forward(Tensor(x[rows])), z_all[rows]),
             CLASSIFIER_CONFIG)
    return BaselineClassifier(net=net, input_mean=mean, input_std=std)


def transmit_images(
    rng: np.random.Generator,
    p: ChannelParams,
    coded: np.ndarray,
    image_shape=(16, 16),
) -> np.ndarray:
    """OOK channel and receiver for a batch of channel-coded bitstreams (B, n),
    as :func:`channel_encode` returns them; returns reconstructed images."""
    decoded = channel_decode(ook_transmit(rng, p, coded))
    return source_decode(decoded[:, :source_bit_count(image_shape)], image_shape)


def baseline_evaluate(
    rng: np.random.Generator,
    cfg: CodecConfig,
    p: ChannelParams,
    test_set: Dataset,
    classifier: BaselineClassifier,
    n_trials: int = 3,
) -> tuple[float, float, float]:
    """Pipeline accuracy under the channel with a 95% Wilson interval. The
    test set is coded once; each trial runs OOK and the receiver on it, and
    the trials run concurrently (see :func:`trial_accuracy`)."""
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    shape = (test_set.height, test_set.width)
    coded = channel_encode(source_encode(test_set.images, shape))
    return trial_accuracy(
        rng, test_set, n_trials,
        lambda trial_rng: classifier.predict_proba(
            transmit_images(trial_rng, p, coded, shape)).argmax(axis=1))
