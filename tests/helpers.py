"""Reference implementations and stand-ins shared by the tests.

The package trains through fused graph nodes (``nn.dense``,
``nn.cross_entropy``, ``surrogate.mdn_nll``, and the surrogate's
draw behind ``ChannelSurrogate.sample_tensor``) and builds its dataset with
a table kernel. Each is bit-identical to a composition of simpler steps,
and those compositions live here as the references the tests compare
against: the elementwise and slicing autodiff ops with their
finite-difference checker, the mixture density and mean, the draw on raw
net outputs, the OOK detector's count threshold, and the per-image dataset
loop. As the package's nodes do, each op hands every input a gradient of
its own, since a tensor keeps its first gradient as given. ``sub`` and
``neg`` spell the ``a - b`` and ``-a`` of the composed graphs as the same
ops, in the same order. Beside them sit stand-ins: an unstandardized
semantic model and a generator that replays frozen draws.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from mclink.channel import ChannelParams, capture_probability
from mclink.dataset import IMAGE_SIZE, MAX_SHIFT, PIXEL_NOISE_STD, _base_pattern
from mclink.nn import (
    DenseNet,
    Tensor,
    _leaky_relu,
    _leaky_relu_grad,
    _sigmoid,
    _sigmoid_grad,
    _softmax,
    _softmax_grad,
    apply_activation,
    as_tensor,
)
from mclink.surrogate import (
    COMPONENTS,
    LOGVAR_MAX,
    LOGVAR_MIN,
    MDN_LAYERS,
    MixtureParams,
    _unclipped,
)
from mclink.transceiver import SemanticModel, build_semantic_model


# -- elementwise autodiff ops ---------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _unary(a, out_data, da) -> Tensor:
    """One-input node; ``da`` returns a new array no one else holds."""
    a = as_tensor(a)
    y = out_data(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(da(g, a.data, y))

    return Tensor(y, requires_grad=a.requires_grad, parents=(a,), backward_fn=backward_fn)


def _binary(a, b, out_data, da, db) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    req = a.requires_grad or b.requires_grad

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(da(g, a.data, b.data), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db(g, a.data, b.data), b.data.shape))

    return Tensor(out_data(a.data, b.data), requires_grad=req, parents=(a, b),
                  backward_fn=backward_fn)


def add(a, b) -> Tensor:
    # each parent gets its own copy of g: a tensor keeps its first gradient
    # as given and adds later ones into it
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g.copy(), lambda g, x, y: g.copy())


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def sub(a, b) -> Tensor:
    return add(a, mul(b, -1.0))


def neg(a) -> Tensor:
    return mul(a, -1.0)


def power(a, exponent: float) -> Tensor:
    e = float(exponent)
    return _unary(a, lambda x: x ** e, lambda g, x, y: g * e * x ** (e - 1.0))


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, y: g * y)


def log(a) -> Tensor:
    return _unary(a, np.log, lambda g, x, y: g / x)


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda g, x, y: g * 0.5 / y)


def maximum_scalar(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only above the floor."""
    f = float(floor)
    return _unary(a, lambda x: np.maximum(x, f), lambda g, x, y: g * (x > f))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is zero where the clamp is active."""
    return _unary(
        a,
        lambda x: np.clip(x, lo, hi),
        lambda g, x, y: g * ((x > lo) & (x < hi)),
    )


def leaky_relu(a) -> Tensor:
    return _unary(a, _leaky_relu, lambda g, x, y: _leaky_relu_grad(g, y))


def sigmoid(a) -> Tensor:
    return _unary(a, _sigmoid, lambda g, x, y: _sigmoid_grad(g, y))


def softmax(a, axis: int = -1) -> Tensor:
    return _unary(a, lambda x: _softmax(x, axis), lambda g, x, y: _softmax_grad(g, y, axis))


def log_softmax(a, axis: int = -1) -> Tensor:
    """log(softmax(a)) computed as a - logsumexp(a), without a log of zero."""
    def fwd(x):
        shifted = x - x.max(axis=axis, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def da(g, x, y):
        return g - np.exp(y) * g.sum(axis=axis, keepdims=True)

    return _unary(a, fwd, da)


def logsumexp(a, axis: int = -1) -> Tensor:
    """log(sum(exp(a))) along ``axis`` (dropped), shifted by the max for range."""
    def fwd(x):
        peak = x.max(axis=axis, keepdims=True)
        return (peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))).squeeze(axis)

    def da(g, x, y):
        return np.expand_dims(g, axis) * np.exp(x - np.expand_dims(y, axis))

    return _unary(a, fwd, da)


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast the gradient of a reduction back over the reduced axis."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    return _unary(a, lambda x: x.sum(axis=axis, keepdims=keepdims),
                  lambda g, x, y: _spread(g, x.shape, axis, keepdims))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Mean as sum / n: one rounding, where sum * (1 / n) takes two."""
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return _unary(a, lambda x: x.sum(axis=axis, keepdims=keepdims) / n,
                  lambda g, x, y: _spread(g / n, x.shape, axis, keepdims))


def take_rows(a, col_index: np.ndarray) -> Tensor:
    """out[i] = a[i, col_index[i]] with scatter-add gradient."""
    a = as_tensor(a)
    rows = np.arange(a.data.shape[0])
    col_index = np.asarray(col_index, dtype=np.intp)

    def da(g, x, y):
        z = np.zeros_like(x)
        np.add.at(z, (rows, col_index), g)
        return z

    return _unary(a, lambda x: x[rows, col_index].copy(), da)


def getitem(a, idx) -> Tensor:
    """Basic slicing with gradient scatter (no fancy indexing)."""
    def da(g, x, y):
        z = np.zeros_like(x)
        z[idx] = g
        return z

    return _unary(a, lambda x: x[idx].copy(), da)


def gradient_check(loss_fn: Callable[[], Tensor], params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the graph on every call (it is re-evaluated
    2 x n times). Elements where both gradients are below 1e-7 are treated
    as matching zeros.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p in params:
        p.zero_grad()
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            ai = a_flat[i]
            if abs(ai) < 1e-7 and abs(numeric) < 1e-7:
                continue
            worst = max(worst, abs(ai - numeric) / max(abs(ai), abs(numeric)))
    return worst


# -- the mixture channel ----------------------------------------------------

def mixture(pi, mu, sigma2) -> MixtureParams:
    """A one-row mixture from the weights, means and variances of its components."""
    return MixtureParams(*(np.array([values], dtype=float) for values in (pi, mu, sigma2)))


def mixture_pdf(mp: MixtureParams, w_rx) -> np.ndarray:
    """Density of each row's mixture at each w_rx, of shape ``w_rx.shape + (rows,)``."""
    w = np.asarray(w_rx, dtype=float)[..., None, None]
    kernel = np.exp(-((w - mp.mu) ** 2) / (2.0 * mp.sigma2))
    return (mp.pi * kernel / np.sqrt(2.0 * math.pi * mp.sigma2)).sum(axis=-1)


def mixture_mean(mp: MixtureParams) -> np.ndarray:
    return (mp.pi * mp.mu).sum(axis=-1)


def mixture_variance(mp: MixtureParams) -> np.ndarray:
    m = (mp.pi * mp.mu).sum(axis=-1, keepdims=True)
    return (mp.pi * (mp.sigma2 + (mp.mu - m) ** 2)).sum(axis=-1)


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid rule over samples ``y`` at ascending points ``x``."""
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def sample_surrogate(rng: np.random.Generator, raw: Tensor) -> Tensor:
    """Reparameterized draw from the mixtures of raw net outputs, one sample per row.

    ``raw`` holds (rows, 3h) outputs, split as ``mdn_forward`` splits them,
    so h is a third of its width. The component index is drawn from pi
    (``rng.random``, then ``rng.standard_normal`` for eps) and treated as a
    constant; gradients flow through the selected mean and variance only.
    One graph node, bit-identical to the softmax, clip, exp, row pick, sqrt
    and affine draw composed. ``sample_surrogate(rng, net.forward(ctx))``
    on a batch of frames' context rows is the composed reference of
    ``ChannelSurrogate.sample_tensor`` on those frames.
    """
    x = raw.data
    n, h = x.shape[0], x.shape[1] // 3
    u = rng.random(n)
    pi = apply_activation(x[:, 0:h], "softmax")
    idx = (u[:, None] > np.cumsum(pi, axis=1)).sum(axis=1)
    idx = np.minimum(idx, h - 1)
    eps = rng.standard_normal(n)
    rows = np.arange(n)
    logvar_raw = x[rows, 2 * h + idx]
    s2 = np.exp(np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX))
    sd = np.sqrt(s2)
    out = x[rows, h + idx] + sd * eps

    def backward_fn(g):
        # += on zeros, as the composed scatter-adds, so signed zeros match
        grad = np.zeros_like(x)
        grad[rows, h + idx] += g
        grad[rows, 2 * h + idx] += g * eps * 0.5 / sd * s2 * _unclipped(logvar_raw)
        raw._accumulate(grad)

    return Tensor(out, requires_grad=raw.requires_grad, parents=(raw,), backward_fn=backward_fn)


def small_mdn_net(rng: np.random.Generator, hidden: int) -> DenseNet:
    """The mixture net's layer stack with ``hidden`` units per hidden layer,
    for checks that visit every parameter."""
    return DenseNet([2] + [hidden] * (MDN_LAYERS - 1) + [3 * COMPONENTS],
                    ["leaky_relu"] * (MDN_LAYERS - 1) + ["identity"], rng=rng)


# -- the OOK detector ------------------------------------------------------

def detection_threshold(p: ChannelParams) -> float:
    """Count threshold separating 'released' from 'silent' slots: half the
    signal mean at the observation instant."""
    return p.max_molecules * capture_probability(p, p.observation_time()) / 2.0


def ook_count_decisions(w_rx: np.ndarray, p: ChannelParams) -> np.ndarray:
    """OOK decisions on received counts: the normalized symbols ``w_rx`` scaled
    back to counts and compared with :func:`detection_threshold`."""
    counts = w_rx * (p.max_molecules * capture_probability(p, p.observation_time()))
    return (counts >= detection_threshold(p)).astype(np.uint8)


# -- the semantic model ---------------------------------------------------

def unstandardized_model(rng: np.random.Generator, image_shape=(16, 16, 1),
                         num_classes: int = 4) -> SemanticModel:
    """An untrained semantic model whose standardization leaves images as they are."""
    d = int(np.prod(image_shape))
    return build_semantic_model(rng, image_shape, num_classes, np.zeros(d), np.ones(d))


class FrozenDraws:
    """Generator stand-in that replays one reparameterized draw.

    The surrogate's draw takes ``random(n)`` to pick each row's component and
    ``standard_normal(n)`` for its noise. ``random`` returns each row's
    component as a float: with two components, u = 0.0 exceeds no
    cumulative weight and u = 1.0 exceeds only the first (unless that
    weight is exactly 1), so the draw picks exactly the given component.
    ``standard_normal`` returns the given eps. Every call replays the same
    values, so a loss can be re-evaluated for finite differences.
    """

    def __init__(self, component, eps):
        self.u = np.asarray(component, dtype=float)
        self.eps = np.asarray(eps, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()

    def standard_normal(self, n):
        assert n == len(self.eps)
        return self.eps.copy()


# -- the dataset ------------------------------------------------------------

def make_image(rng: np.random.Generator, label: int, size: int = IMAGE_SIZE,
               noise_std: float = PIXEL_NOISE_STD, max_shift: int = MAX_SHIFT) -> np.ndarray:
    """One noisy, randomly shifted class exemplar as a (size, size) array."""
    img = _base_pattern(label, size)
    dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
    img = np.roll(img, (int(dy), int(dx)), axis=(0, 1))
    img = img + noise_std * rng.standard_normal(img.shape)
    return np.clip(img, 0.0, 1.0)
