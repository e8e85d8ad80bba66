"""End-to-end semantic transceiver for the molecular link.

Images are standardized, encoded to a k-dimensional feature vector (five
dense layers), squashed by the quantizer (three layers, sigmoid head) into
release fractions W in (0,1)^k, transmitted one symbol per slot, and the
received normalized symbols are decoded (three layers, softmax head) into
class probabilities.

Training runs the symbols through the fitted channel surrogate so that the
cross-entropy gradient reaches the encoder and quantizer; evaluation runs
them through the real slot sampler instead. The transmitter draws no
randomness, so an evaluation runs it once; each noise trial then draws only
the channel and runs only the receiver, on its own generator. The trials
run concurrently, one share per usable CPU, through
:func:`mclink.nn.run_concurrently`, whose worker pool also runs half of
the surrogate's draw in training; both give the same bytes on one CPU.
Both channels take whole (B, k) frames and return the received (B, k)
symbols, so the transceiver never sees a slot's channel context.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import nn
from .channel import ChannelParams, observe_frames
from .dataset import Dataset, one_hot
from .nn import DenseNet, Tensor
from .surrogate import ChannelSurrogate

SEMANTIC_ROLE = "semantic_model"

SYMBOLS = 16                         # slots per frame, k
ENCODER_HIDDEN = (128, 64, 64, 32)   # five layers to the k-dim feature
QUANTIZER_HIDDEN = (32, 32)          # three layers, sigmoid head
DECODER_HIDDEN = (64, 32)            # three layers, softmax head
WILSON_Z = 1.959963984540054         # two-sided 95% normal quantile


@dataclass
class SemanticModel:
    """Encoder/quantizer/decoder stack plus input standardization."""

    encoder: DenseNet
    quantizer: DenseNet
    decoder: DenseNet
    image_shape: tuple[int, int, int]
    input_mean: np.ndarray
    input_std: np.ndarray

    @property
    def symbols(self) -> int:
        """Slots per frame, k: the encoder's output width."""
        return self.encoder.dims[-1]

    @property
    def num_classes(self) -> int:
        """The decoder's output width."""
        return self.decoder.dims[-1]

    def parameters(self) -> list[Tensor]:
        return (self.encoder.parameters() + self.quantizer.parameters()
                + self.decoder.parameters())

    def standardize(self, images: np.ndarray) -> np.ndarray:
        return (np.asarray(images, dtype=float) - self.input_mean) / self.input_std

    def save(self, path) -> None:
        # k and num_classes stay in the header for its readers; load takes
        # them from the nets
        meta = {
            "k": self.symbols,
            "num_classes": self.num_classes,
            "image_shape": list(self.image_shape),
            "input_mean": [float(v) for v in self.input_mean],
            "input_std": [float(v) for v in self.input_std],
        }
        nets = {"encoder": self.encoder, "quantizer": self.quantizer, "decoder": self.decoder}
        nn.save_checkpoint(path, SEMANTIC_ROLE, nets, meta)

    @classmethod
    def load(cls, path) -> "SemanticModel":
        _, nets, meta = nn.load_checkpoint(path, expect_role=SEMANTIC_ROLE)
        return cls(
            encoder=nets["encoder"], quantizer=nets["quantizer"], decoder=nets["decoder"],
            image_shape=tuple(meta["image_shape"]),
            input_mean=np.array(meta["input_mean"], dtype=float),
            input_std=np.array(meta["input_std"], dtype=float),
        )


def build_semantic_model(
    rng: np.random.Generator,
    image_shape: tuple[int, int, int],
    num_classes: int,
    input_mean: np.ndarray,
    input_std: np.ndarray,
) -> SemanticModel:
    d = int(np.prod(image_shape))
    encoder = DenseNet([d, *ENCODER_HIDDEN, SYMBOLS],
                       ["leaky_relu"] * 4 + ["identity"], rng=rng)
    quantizer = DenseNet([SYMBOLS, *QUANTIZER_HIDDEN, SYMBOLS],
                         ["leaky_relu"] * 2 + ["sigmoid"], rng=rng)
    decoder = DenseNet([SYMBOLS, *DECODER_HIDDEN, num_classes],
                       ["leaky_relu"] * 2 + ["softmax"], rng=rng)
    return SemanticModel(
        encoder=encoder, quantizer=quantizer, decoder=decoder, image_shape=image_shape,
        input_mean=np.asarray(input_mean, dtype=float),
        input_std=np.asarray(input_std, dtype=float),
    )


def standardization_stats(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std of the training set (std floored at 1e-6)."""
    images = np.asarray(images, dtype=float)
    return images.mean(axis=0), np.maximum(images.std(axis=0), 1e-6)


def encode_batch(model: SemanticModel, images: np.ndarray) -> Tensor:
    """Release fractions W in (0,1)^(B,k) for a standardized image batch."""
    expected = int(np.prod(model.image_shape))
    if images.ndim != 2 or images.shape[1] != expected:
        raise ValueError(f"images of shape {images.shape}; the model expects (batch, {expected})")
    x = Tensor(model.standardize(images))
    return model.quantizer.forward(model.encoder.forward(x))


def transmit_train(
    rng: np.random.Generator,
    model: SemanticModel,
    surrogate: ChannelSurrogate,
    images: np.ndarray,
) -> Tensor:
    """Class probabilities with the full gradient path through the surrogate.

    The sampled symbols stay differentiable w.r.t. the transmit side; the
    surrogate's draw gives its net no gradient.
    """
    return model.decoder.forward(surrogate.sample_tensor(encode_batch(model, images), rng))


def transmit_eval(
    rng: np.random.Generator, model: SemanticModel, p: ChannelParams, w: np.ndarray
) -> np.ndarray:
    """Class probabilities for release fractions ``w`` (B, k) sent through
    the real slot sampler (no gradients)."""
    w_rx = observe_frames(rng, p, w)
    return model.decoder.forward(Tensor(w_rx)).data


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if total <= 0:
        raise ValueError("total must be positive")
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


TRAIN_CONFIG = nn.TrainConfig(epochs=40, batch_size=64, lr=2e-2, plateau_window=8)


def train_end_to_end(
    rng: np.random.Generator,
    train_set: Dataset,
    surrogate: ChannelSurrogate,
    cfg: nn.TrainConfig = TRAIN_CONFIG,
    model: SemanticModel | None = None,
) -> tuple[SemanticModel, dict]:
    """Minimize mean cross-entropy through the surrogate; only the model trains.

    A random tenth of the set validates, through the surrogate too. Returns
    the model with its best-validation parameters and :func:`nn.train`'s
    history, with per-epoch train/val accuracy added.
    """
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    images, labels = train_set.images, train_set.labels
    n_val = max(1, int(len(labels) * nn.VAL_FRACTION))
    perm = rng.permutation(len(labels))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    num_classes = train_set.num_classes
    if model is None:
        mean, std = standardization_stats(images[tr_idx])
        model = build_semantic_model(
            rng, image_shape=(train_set.height, train_set.width, train_set.channels),
            num_classes=num_classes, input_mean=mean, input_std=std,
        )
    history: dict = {"train_loss": [], "train_acc": [], "val_loss": [], "val_acc": []}
    hits: list[int] = []                  # correct answers per batch of this epoch

    def batch_loss(rows) -> Tensor:
        sel = tr_idx[rows]
        y = transmit_train(rng, model, surrogate, images[sel])
        hits.append(int((y.data.argmax(axis=1) == labels[sel]).sum()))
        return nn.cross_entropy(y, one_hot(labels[sel], num_classes))

    def validate() -> float:
        history["train_acc"].append(sum(hits) / len(tr_idx))
        hits.clear()
        y = transmit_train(rng, model, surrogate, images[val_idx])
        history["val_acc"].append(float((y.data.argmax(axis=1) == labels[val_idx]).mean()))
        return float(nn.cross_entropy(y, one_hot(labels[val_idx], num_classes)).data)

    nn.train(rng, model.parameters(), len(tr_idx), batch_loss, cfg,
             validate=validate, history=history)
    return model, history


def trial_accuracy(
    rng: np.random.Generator,
    test_set: Dataset,
    n_trials: int,
    predict: Callable[[np.random.Generator], np.ndarray],
) -> tuple[float, float, float]:
    """Pooled accuracy of ``predict(trial_rng)`` over noise trials.

    ``predict`` returns one predicted label per test image, in the order of
    ``test_set.labels``. Each trial hands it an independent per-trial
    stream, which it spends on the channel draws alone: the caller computes
    the transmit side once, before the trials. The pooled correct count
    gives a 95% binomial (Wilson) interval.

    The trials run concurrently in ``min(n_trials, nn.usable_cpus())``
    shares through :func:`nn.run_concurrently`: the calling thread runs one
    and the shared worker pool the rest (one trial or one CPU starts no
    thread). ``predict`` must therefore only read what it shares with other
    trials. Each trial's generator comes from a seed drawn up front and the
    counts are integers, so the result does not depend on how many trials
    run at once. An exception in any trial reaches the caller.
    """
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    trial_seeds = rng.integers(0, 2 ** 63 - 1, size=n_trials)

    def count(seeds) -> int:
        return sum(int((predict(np.random.default_rng(int(seed))) == test_set.labels).sum())
                   for seed in seeds)

    workers = min(n_trials, nn.usable_cpus())
    if workers == 1:    # no split: its cost shows on short one-trial calls
        correct = count(trial_seeds)
    else:
        shares = np.array_split(trial_seeds, workers)
        correct = sum(nn.run_concurrently([partial(count, share) for share in shares]))
    total = n_trials * len(test_set)
    lo, hi = wilson_interval(correct, total)
    return correct / total, lo, hi


def evaluate_accuracy(
    rng: np.random.Generator,
    model: SemanticModel,
    p: ChannelParams,
    test_set: Dataset,
    n_trials: int = 3,
) -> tuple[float, float, float]:
    """Fraction correct through the real channel, averaged over noise draws,
    with a 95% Wilson interval (see :func:`trial_accuracy`). The test set is
    encoded once; each trial runs the channel and the decoder on it, and the
    trials run concurrently."""
    w = encode_batch(model, test_set.images).data
    return trial_accuracy(
        rng, test_set, n_trials,
        lambda trial_rng: transmit_eval(trial_rng, model, p, w).argmax(axis=1))
