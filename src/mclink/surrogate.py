"""Learned probabilistic stand-in for the molecular channel.

A small mixture-density network maps the transmit context of one slot --
the current release fraction and the previous one (the channel is Markov
of order 1 at memory 1) -- to the parameters of a two-component Gaussian
mixture over the normalized received symbol:

    p(w_rx | context) = sum_i pi_i N(w_rx; mu_i, sigma2_i).

It is fitted by negative log-likelihood on pairs drawn from the real slot
sampler. Afterwards it serves as the differentiable channel for end-to-end
transceiver training: a reparameterized draw mu_i + sqrt(sigma2_i) * eps
carries gradients through mu and sigma2 while the component choice is held
constant. The net and its draw are one graph node from (B, k) release
frames to the received symbols, the shape contract of the real channel's
``observe_frames``; it reads the net's arrays, so no gradient reaches the
net. Consecutive symbols of a frame occupy consecutive slots, so the node
gives each symbol the context (itself, its predecessor), with a silent slot
before the frame, and models links of memory 1 at most. It runs its two
fixed row blocks on both cores where there are two and gives the same
bytes on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import nn, runio
from .channel import ChannelParams, observe_frames
from .nn import DenseNet, Tensor

COMPONENTS = 2
HIDDEN_WIDTH = 64
MDN_LAYERS = 5
SIGMA2_MIN = 1e-6
SIGMA2_MAX = 1e2
LOGVAR_MIN = math.log(SIGMA2_MIN)
LOGVAR_MAX = math.log(SIGMA2_MAX)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

SURROGATE_ROLE = "channel_surrogate"


class MixtureParams(NamedTuple):
    """Mixture weights, means and variances, each (rows, h): one row per context."""

    pi: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray


def generate_pairs(
    rng: np.random.Generator, p: ChannelParams, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random contexts pushed through the real channel.

    Returns (contexts, w_rx): an (n, 2) array of (w_curr, w_prev) rows and
    the n received symbols. Each context is sent through ``observe_frames``
    as the two-slot frame [w_prev, w_curr], and its symbol is the second
    slot's: the current release with the previous one as its only ISI, at
    any channel memory.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    contexts = rng.uniform(size=(n, 2))
    return contexts, observe_frames(rng, p, contexts[:, ::-1])[:, 1]


def check_memory(p: ChannelParams) -> None:
    """Refuse a link of memory above 1: a context holds one previous slot."""
    if p.memory > 1:
        raise ValueError(f"memory = {p.memory}: the channel surrogate's context holds one "
                         "previous slot, so it models links of memory 1 or less")


def write_pairs_csv(path, pairs: tuple[np.ndarray, np.ndarray]) -> None:
    contexts, targets = pairs
    runio.write_csv(path, ["w_curr", "w_prev", "w_rx"],
                    ((w_curr, w_prev, w_rx) for (w_curr, w_prev), w_rx
                     in zip(contexts.tolist(), targets.tolist())))


def build_mdn_net(rng: np.random.Generator) -> DenseNet:
    """Five dense layers from (w_curr, w_prev) to the 3h mixture outputs, h = COMPONENTS."""
    dims = [2] + [HIDDEN_WIDTH] * (MDN_LAYERS - 1) + [3 * COMPONENTS]
    activations = ["leaky_relu"] * (MDN_LAYERS - 1) + ["identity"]
    return DenseNet(dims, activations, rng=rng)


def mdn_forward(net: DenseNet, contexts: np.ndarray) -> MixtureParams:
    """Numeric mixture parameters for an (n, 2) batch of (w_curr, w_prev) contexts.

    The raw (n, 3h) outputs split into pi through a softmax, mu as-is,
    and sigma2 as exp of the log-variance clamped to [LOGVAR_MIN, LOGVAR_MAX].
    """
    raw = net.forward(Tensor(contexts)).data
    h = raw.shape[1] // 3
    pi = nn.apply_activation(raw[:, 0:h], "softmax")
    mu = raw[:, h:2 * h].copy()
    sigma2 = np.exp(np.clip(raw[:, 2 * h:3 * h], LOGVAR_MIN, LOGVAR_MAX))
    return MixtureParams(pi=pi, mu=mu, sigma2=sigma2)


def _unclipped(logvar: np.ndarray) -> np.ndarray:
    """Where the log-variance clamp passes the gradient."""
    return (logvar > LOGVAR_MIN) & (logvar < LOGVAR_MAX)


def mdn_nll(net: DenseNet, pairs: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Mean negative log-likelihood of (contexts, targets) under the net's mixtures.

    The loss is evaluated in log space, as usual for mixture density
    networks: log-softmax weights plus log-normal kernels, combined by a
    log-sum-exp. That keeps it finite on outliers without a density floor
    and avoids the round-off of exponentiating and re-logging each term.

    The head is one graph node on the raw (rows, 3h) output. Forward and
    backward run the array operations of ``log_softmax``, ``clip``,
    ``exp``, ``logsumexp`` and ``tmean`` composed, in their order, so its
    values are bit-identical to theirs; backward scatters into one
    (rows, 3h) gradient.
    """
    contexts, targets = pairs
    if len(targets) == 0:
        raise ValueError("empty batch")
    if targets.shape != (len(contexts),):
        raise ValueError(f"{len(contexts)} contexts but targets of shape {targets.shape}")
    raw = net.forward(Tensor(contexts))
    x = raw.data
    n, h = len(x), x.shape[1] // 3
    logits, mu, logvar_raw = x[:, 0:h], x[:, h:2 * h], x[:, 2 * h:3 * h]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_pi = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    diff = mu - targets.reshape(-1, 1)
    inv_var = np.exp(logvar * -1.0)
    sq = diff * diff
    joint = log_pi + ((logvar + sq * inv_var) * -0.5 - HALF_LOG_2PI)
    peak = joint.max(axis=-1, keepdims=True)
    lse = peak + np.log(np.exp(joint - peak).sum(axis=-1, keepdims=True))
    loss = lse.sum() / n * -1.0

    def backward_fn(g):
        g_joint = g * -1.0 / n * np.exp(joint - lse)
        g_half = g_joint * -0.5
        g_diff = g_half * inv_var * diff
        g_logvar = g_half + g_half * sq * inv_var * -1.0
        # += on zeros, as the composed slices' zero-filled gradients add, so
        # signed zeros match
        grad = np.zeros_like(x)
        grad[:, 0:h] += g_joint - np.exp(log_pi) * g_joint.sum(axis=-1, keepdims=True)
        grad[:, h:2 * h] += g_diff + g_diff
        grad[:, 2 * h:3 * h] += g_logvar * _unclipped(logvar_raw)
        raw._accumulate(grad)

    return Tensor(loss, requires_grad=raw.requires_grad, parents=(raw,), backward_fn=backward_fn)


def _frozen_draw(net: DenseNet, w: Tensor, rng: np.random.Generator) -> Tensor:
    """Reparameterized draw from the net's mixtures for (B, k) release
    frames, one received symbol per slot, as one graph node on ``w``.

    Symbol j's context row is (w_j, w_{j-1}), silent before the frame; the
    B*k rows run frame-major. ``rng.random`` picks each row's component from
    pi, treated as a constant, then ``rng.standard_normal`` gives its eps;
    the draw is mu + sqrt(sigma2) * eps of that component. The net runs
    ``dense``'s arithmetic layer by layer on two row blocks
    (:func:`nn.row_blocks`), the second on the shared worker pool
    (:func:`nn.run_concurrently`); backward runs each block down to the
    first layer's activation, and that layer's input product once on all
    rows, since its sums round by the row count.
    Each row's context gradient then folds onto its own slot and, for the
    ISI column, onto the slot before. So the values are bit-identical to
    ``DenseNet.forward`` on the context rows, then the softmax, clip, exp,
    row pick, sqrt and affine draw composed, at any CPU count.
    """
    b, k = w.data.shape
    n, h = b * k, net.dims[-1] // 3
    x = np.zeros((b, k, 2))
    x[:, :, 0] = w.data
    x[:, 1:, 1] = w.data[:, :-1]
    x = x.reshape(n, 2)
    u = rng.random(n)
    eps = rng.standard_normal(n)
    layers = list(zip(net.weights, net.biases, net.activations))
    blocks = nn.row_blocks(n, 2)
    out = np.empty(n)
    saved = [None] * len(blocks)        # per block: layer outputs, component, draw terms

    def forward(i, rows):
        y = x[rows]
        outputs = []
        for weight, bias, tag in layers:
            y = y @ weight.data
            y += bias.data
            y = nn.apply_activation(y, tag)
            outputs.append(y)
        pi = nn.apply_activation(y[:, 0:h], "softmax")
        idx = (u[rows, None] > np.cumsum(pi, axis=1)).sum(axis=1)
        idx = np.minimum(idx, h - 1)
        picked = np.arange(len(y))
        logvar_raw = y[picked, 2 * h + idx]
        s2 = np.exp(np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX))
        sd = np.sqrt(s2)
        out[rows] = y[picked, h + idx] + sd * eps[rows]
        saved[i] = outputs, idx, logvar_raw, s2, sd

    nn.run_concurrently([partial(forward, i, rows) for i, rows in enumerate(blocks)])

    def backward(g, first_grads, i, rows):
        outputs, idx, logvar_raw, s2, sd = saved[i]
        picked = np.arange(len(idx))
        g = g[rows]
        # += on zeros, as the composed scatter-adds, so signed zeros match
        grad = np.zeros_like(outputs[-1])
        grad[picked, h + idx] += g
        grad[picked, 2 * h + idx] += g * eps[rows] * 0.5 / sd * s2 * _unclipped(logvar_raw)
        for (weight, _, tag), y in zip(layers[:0:-1], outputs[:0:-1]):   # last layer to second
            grad = nn.activation_grad(grad, y, tag) @ weight.data.T
        first_grads[rows] = nn.activation_grad(grad, outputs[0], layers[0][2])

    def backward_fn(g):
        first_grads = np.empty((n, net.dims[1]))
        nn.run_concurrently([partial(backward, g.reshape(n), first_grads, i, rows)
                             for i, rows in enumerate(blocks)])
        ctx = (first_grads @ net.weights[0].data.T).reshape(b, k, 2)
        # the successor's ISI column scattered into zeros, then the own
        # slot's added, as the composed slicing did, so signed zeros match
        fold = np.zeros((b, k))
        fold[:, :-1] = ctx[:, 1:, 1]
        fold += ctx[:, :, 0]
        w._accumulate(fold)

    return Tensor(out.reshape(b, k), requires_grad=w.requires_grad, parents=(w,),
                  backward_fn=backward_fn)


@dataclass
class ChannelSurrogate:
    """Trained mixture-density channel."""

    net: DenseNet
    channel: dict = field(default_factory=dict)   # provenance echo

    @property
    def h(self) -> int:
        """Mixture components: a third of the net's (pi, mu, log-variance) outputs."""
        return self.net.dims[-1] // 3

    def sample_tensor(self, w: Tensor, rng: np.random.Generator) -> Tensor:
        """Received (B, k) symbols for (B, k) release frames ``w``, as
        :func:`observe_frames` takes them, with a gradient path into ``w``
        and none into the net."""
        if w.data.ndim != 2:
            raise ValueError(f"frames of shape {w.data.shape}; expected (B, k)")
        return _frozen_draw(self.net, w, rng)

    def save(self, path) -> None:
        # h stays in the header for its readers; load takes it from the net
        meta = {"h": self.h, "channel": self.channel}
        nn.save_checkpoint(path, SURROGATE_ROLE, {"mdn": self.net}, meta)

    @classmethod
    def load(cls, path) -> "ChannelSurrogate":
        _, nets, meta = nn.load_checkpoint(path, expect_role=SURROGATE_ROLE)
        return cls(net=nets["mdn"], channel=meta.get("channel", {}))


FIT_CONFIG = nn.TrainConfig(epochs=150, batch_size=256, lr=5e-3, min_lr=1e-5,
                            plateau_window=5, clip_norm=5.0)
FIT_PAIRS = 50_000      # channel pairs ``mclink fit-channel`` fits on by default


def fit_channel(
    rng: np.random.Generator,
    p: ChannelParams,
    cfg: nn.TrainConfig,
    pairs: tuple[np.ndarray, np.ndarray],
) -> tuple[ChannelSurrogate, dict]:
    """Fit the mixture net by NLL on ``pairs``, drawn for link ``p`` by
    :func:`generate_pairs`, if :func:`check_memory` accepts the link.

    The first tenth of the pairs validates. The loss stiffens as the
    variances shrink, hence the rate decay and gradient clipping. Returns
    the surrogate and :func:`nn.train`'s history (``train_nll``/``val_nll``).
    """
    check_memory(p)
    contexts, targets = pairs
    n_val = max(1, int(len(targets) * nn.VAL_FRACTION))
    val_ctx, val_tgt = contexts[:n_val], targets[:n_val]
    tr_ctx, tr_tgt = contexts[n_val:], targets[n_val:]

    net = build_mdn_net(rng)
    history = nn.train(
        rng, net.parameters(), len(tr_tgt),
        lambda rows: mdn_nll(net, (tr_ctx[rows], tr_tgt[rows])), cfg,
        validate=lambda: float(mdn_nll(net, (val_ctx, val_tgt)).data), loss_name="nll")
    return ChannelSurrogate(net=net, channel={"params": asdict(p)}), history


def single_gaussian_nll(train_targets, heldout_targets) -> float:
    """Held-out NLL of the moment-matched unconditional Gaussian.

    Closed-form reference the trained mixture must beat: fit mean/variance
    to the training symbols, score the held-out ones.
    """
    train = np.asarray(train_targets, dtype=float)
    heldout = np.asarray(heldout_targets, dtype=float)
    mu = train.mean()
    var = max(train.var(), SIGMA2_MIN)
    nll = 0.5 * math.log(2.0 * math.pi * var) + ((heldout - mu) ** 2).mean() / (2.0 * var)
    return float(nll)
