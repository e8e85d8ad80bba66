"""Conventional separate source/channel coding over the molecular link.

The comparison pipeline: images are block-downsampled and uniformly
quantized to a short bitstream, protected by a simple block code
(repetition-3 or Hamming(7,4)), sent with on-off keying -- bit 1 releases
the full molecule budget, bit 0 stays silent -- detected by thresholding
the slot count, decoded, reconstructed, and classified by a dense net
trained on clean reconstructions.

Rate parity with the semantic system is by slot count: the default codec
(4x downsampling at 1 bit/px, Hamming-coded) spends 28 slots per image
against the semantic frame's 16.

Each codec step (``source_encode``, ``channel_encode``, ``ook_transmit``,
``channel_decode``, ``source_decode``) takes one image or bitstream (n,)
or a batch (B, n) and returns the same rank, so a batch of images runs
through the pipeline as one chain of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .channel import ChannelParams, capture_probability, observe_frames
from .dataset import Dataset, one_hot
from .nn import DenseNet, Tensor
from .transceiver import trial_accuracy

CHANNEL_CODES = ("none", "repetition_3", "hamming_7_4")
CLASSIFIER_ROLE = "baseline_classifier"

# Systematic Hamming(7,4): G = [I4 | P], H = [P^T | I3].
_HAMMING_P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
_HAMMING_G = np.hstack([np.eye(4, dtype=np.uint8), _HAMMING_P])
_HAMMING_H = np.hstack([_HAMMING_P.T, np.eye(3, dtype=np.uint8)])
# syndrome (as little-endian integer) -> the single-bit error it names; row 0 flips nothing
_SYNDROME_FLIP = np.zeros((8, 7), dtype=np.uint8)
_SYNDROME_FLIP[_HAMMING_H.T @ [1, 2, 4], np.arange(7)] = 1


@dataclass(frozen=True)
class CodecConfig:
    """Source and channel coding settings for the baseline pipeline."""

    downsample_factor: int = 4
    bits_per_pixel: int = 1
    channel_code: str = "hamming_7_4"
    detection_threshold: float | str = "auto"   # molecules, or "auto" = half the signal mean

    def __post_init__(self):
        if self.downsample_factor < 1:
            raise ValueError("downsample_factor must be >= 1")
        if not 1 <= self.bits_per_pixel <= 8:
            raise ValueError("bits_per_pixel must be in 1..8")
        if self.channel_code not in CHANNEL_CODES:
            raise ValueError(f"channel_code must be one of {CHANNEL_CODES}")
        if self.detection_threshold != "auto" and not float(self.detection_threshold) > 0:
            raise ValueError("numeric detection_threshold must be positive")


def _batch(x, dtype) -> tuple[np.ndarray, bool]:
    """View one (n,) array or a batch (B, n) as a batch; True when it was one."""
    x = np.asarray(x, dtype=dtype)
    return np.atleast_2d(x), x.ndim == 1


def source_encode(cfg: CodecConfig, image: np.ndarray, image_shape=(16, 16)) -> np.ndarray:
    """Downsample by block mean and quantize to a bitstream (MSB first).

    Levels are q = round(x * (2^b - 1)), so the codec is exact on inputs
    already on the b-bit grid and off by at most half a step otherwise.
    """
    h, w = image_shape
    img, one = _batch(image, float)
    img = img.reshape(len(img), h, w)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("pixel values must lie in [0, 1]")
    ds = cfg.downsample_factor
    if h % ds or w % ds:
        raise ValueError(f"image dims {h}x{w} not divisible by downsample factor {ds}")
    small = img.reshape(len(img), h // ds, ds, w // ds, ds).mean(axis=(2, 4))
    bpp = cfg.bits_per_pixel
    q = np.round(small * ((1 << bpp) - 1)).astype(np.int64).reshape(len(img), -1)
    bits = np.empty((len(img), q.shape[1] * bpp), dtype=np.uint8)
    for i in range(bpp):
        bits[:, i::bpp] = (q >> (bpp - 1 - i)) & 1
    return bits[0] if one else bits


def source_decode(cfg: CodecConfig, bits: np.ndarray, image_shape=(16, 16)) -> np.ndarray:
    """Rebuild full-resolution images from source bitstreams."""
    h, w = image_shape
    ds = cfg.downsample_factor
    n_px = (h // ds) * (w // ds)
    bpp = cfg.bits_per_pixel
    bits, one = _batch(bits, np.uint8)
    if bits.shape[1] != n_px * bpp:
        raise ValueError(f"expected {n_px * bpp} source bits, got {bits.shape[1]}")
    q = np.zeros((len(bits), n_px), dtype=np.int64)
    for i in range(bpp):
        q = (q << 1) | bits[:, i::bpp]
    small = (q / float((1 << bpp) - 1)).reshape(len(bits), h // ds, w // ds)
    img = np.repeat(np.repeat(small, ds, axis=1), ds, axis=2).reshape(len(bits), -1)
    return img[0] if one else img


def source_bit_count(cfg: CodecConfig, image_shape=(16, 16)) -> int:
    h, w = image_shape
    ds = cfg.downsample_factor
    return (h // ds) * (w // ds) * cfg.bits_per_pixel


def channel_encode(cfg: CodecConfig, bits: np.ndarray) -> np.ndarray:
    """Protect bitstreams; Hamming input is zero-padded to whole blocks."""
    bits, one = _batch(bits, np.uint8)
    if cfg.channel_code == "none":
        coded = bits.copy()
    elif cfg.channel_code == "repetition_3":
        coded = np.repeat(bits, 3, axis=1)
    else:
        bits = np.pad(bits, ((0, 0), (0, (-bits.shape[1]) % 4)))
        coded = (bits.reshape(len(bits), -1, 4) @ _HAMMING_G % 2).astype(np.uint8)
    coded = coded.reshape(len(bits), -1)
    return coded[0] if one else coded


def channel_decode(cfg: CodecConfig, bits: np.ndarray) -> np.ndarray:
    """Decode received bitstreams; corrects one error per code block."""
    bits, one = _batch(bits, np.uint8)
    if cfg.channel_code == "none":
        decoded = bits.copy()
    elif cfg.channel_code == "repetition_3":
        if bits.shape[1] % 3:
            raise ValueError("repetition-coded length must be a multiple of 3")
        decoded = (bits.reshape(len(bits), -1, 3).sum(axis=2) >= 2).astype(np.uint8)
    else:
        if bits.shape[1] % 7:
            raise ValueError("Hamming-coded length must be a multiple of 7")
        blocks = bits.reshape(len(bits), -1, 7)
        syndrome = blocks @ _HAMMING_H.T % 2
        blocks = blocks ^ _SYNDROME_FLIP[syndrome @ [1, 2, 4]]
        decoded = blocks[:, :, :4].reshape(len(bits), -1)
    return decoded[0] if one else decoded


def coded_bit_count(cfg: CodecConfig, n_source_bits: int) -> int:
    if cfg.channel_code == "none":
        return n_source_bits
    if cfg.channel_code == "repetition_3":
        return 3 * n_source_bits
    return 7 * ((n_source_bits + 3) // 4)


def detection_threshold(cfg: CodecConfig, p: ChannelParams, t: float | None = None) -> float:
    """Count threshold separating 'released' from 'silent' slots."""
    if cfg.detection_threshold != "auto":
        return float(cfg.detection_threshold)
    if t is None:
        t = p.observation_time()
    return p.max_molecules * capture_probability(p, t) / 2.0


def ook_transmit(
    rng: np.random.Generator,
    p: ChannelParams,
    bits: np.ndarray,
    cfg: CodecConfig = CodecConfig(),
    t: float | None = None,
) -> np.ndarray:
    """On-off key a bitstream over consecutive slots and hard-detect it.

    Accepts one stream (n,) or a batch (B, n); each stream starts after a
    silent slot and suffers ISI across its own bits.
    """
    bits, one = _batch(bits, np.uint8)
    if t is None:
        t = p.observation_time()
    w_rx = observe_frames(rng, p, bits.astype(float), t)
    counts = w_rx * (p.max_molecules * capture_probability(p, t))
    detected = (counts >= detection_threshold(cfg, p, t)).astype(np.uint8)
    return detected[0] if one else detected


@dataclass
class BaselineClassifier:
    """Dense classifier trained on clean codec reconstructions."""

    net: DenseNet
    input_mean: np.ndarray
    input_std: np.ndarray
    codec: dict

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        x = (np.atleast_2d(images) - self.input_mean) / self.input_std
        return self.net.forward(Tensor(x)).data

    def save(self, path) -> None:
        meta = {
            "codec": self.codec,
            "input_mean": [float(v) for v in self.input_mean],
            "input_std": [float(v) for v in self.input_std],
        }
        nn.save_checkpoint(path, CLASSIFIER_ROLE, {"net": self.net}, meta)

    @classmethod
    def load(cls, path) -> "BaselineClassifier":
        _, nets, meta = nn.load_checkpoint(path, expect_role=CLASSIFIER_ROLE)
        return cls(net=nets["net"],
                   input_mean=np.array(meta["input_mean"], dtype=float),
                   input_std=np.array(meta["input_std"], dtype=float),
                   codec=meta["codec"])


def clean_reconstructions(cfg: CodecConfig, images: np.ndarray, image_shape=(16, 16)) -> np.ndarray:
    """Codec round trip without a channel, for training and references."""
    bits = source_encode(cfg, np.atleast_2d(images), image_shape)
    return source_decode(cfg, bits, image_shape)


CLASSIFIER_CONFIG = nn.TrainConfig(epochs=30, batch_size=64, lr=2e-2)


def train_baseline_classifier(
    rng: np.random.Generator,
    cfg: CodecConfig,
    train_set: Dataset,
    train_cfg: nn.TrainConfig = CLASSIFIER_CONFIG,
) -> BaselineClassifier:
    """Fit the reconstruction classifier on channel-free codec output, all epochs."""
    shape = (train_set.height, train_set.width)
    recon = clean_reconstructions(cfg, train_set.images, shape)
    mean = recon.mean(axis=0)
    std = np.maximum(recon.std(axis=0), 1e-6)
    x = (recon - mean) / std
    num_classes = train_set.num_classes
    net = DenseNet([x.shape[1], 64, 32, num_classes],
                   ["leaky_relu", "leaky_relu", "softmax"], rng=rng)
    z_all = one_hot(train_set.labels, num_classes)
    nn.train(rng, net.parameters(), len(x),
             lambda rows: nn.cross_entropy(net.forward(Tensor(x[rows])), z_all[rows]),
             train_cfg)
    return BaselineClassifier(net=net, input_mean=mean, input_std=std, codec=asdict(cfg))


def transmit_images(
    rng: np.random.Generator,
    cfg: CodecConfig,
    p: ChannelParams,
    images: np.ndarray,
    image_shape=(16, 16),
) -> np.ndarray:
    """Full codec+channel round trip for a batch; returns reconstructions."""
    coded = channel_encode(cfg, source_encode(cfg, np.atleast_2d(images), image_shape))
    decoded = channel_decode(cfg, ook_transmit(rng, p, coded, cfg))
    return source_decode(cfg, decoded[:, :source_bit_count(cfg, image_shape)], image_shape)


def baseline_evaluate(
    rng: np.random.Generator,
    cfg: CodecConfig,
    p: ChannelParams,
    test_set: Dataset,
    classifier: BaselineClassifier,
    n_trials: int = 3,
) -> tuple[float, float, float]:
    """Pipeline accuracy under the channel with a 95% Wilson interval."""
    shape = (test_set.height, test_set.width)
    return trial_accuracy(
        rng, test_set, n_trials,
        lambda trial_rng, images: classifier.predict_proba(
            transmit_images(trial_rng, cfg, p, images, shape)).argmax(axis=1))
