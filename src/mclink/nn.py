"""Minimal dense neural toolkit with reverse-mode gradients.

Just enough autodiff for this project: float64 tensors holding a dense
array, a gradient slot, and a backward closure. Graphs are built by the
nodes below and walked once per loss evaluation. Each model is trained
through fused nodes, each with a hand-written backward that runs the same
array operations, in the same order, as the composed elementwise ops it
replaces, so its values are bit-identical to theirs (the tests keep the
composed forms as the reference):

* ``dense``, one layer of a ``DenseNet``: matmul, bias and activation;
  backward takes the activation's derivative from the layer output and
  forms only the gradients some tensor requires;
* ``cross_entropy``: floor, log, one-hot pick, row sum and batch mean;
* in ``surrogate``, the mixture head's NLL (``mdn_nll``), and the fitted
  channel net with its reparameterized draw as one node from the sent
  frames to the received ones.

Each node takes the whole tensor the one before it made, so the graphs
need no slicing or joining ops, and each node hands its inputs gradients
made for them alone. Every network trains through one loop, ``train``:
SGD with momentum, early stopping, best-weight restore. Work that splits
into independent parts runs through ``run_concurrently``, on the calling
thread and the process's one worker pool. Each caller fixes its parts and
combines their results in a fixed order, so a fixed seed gives the same
bytes at any CPU count.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

LEAKY_SLOPE = 0.01
LOG_EPS = 1e-12          # floor inside cross-entropy logs


class Tensor:
    """Dense array with a gradient accumulator.

    ``grad`` is populated by :meth:`backward` on every tensor with
    ``requires_grad`` and reset by the optimizer (or ``zero_grad``).
    """

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward: Callable[[np.ndarray], None] | None = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad``. A first gradient is kept as it is: every
        node makes ``g`` for this tensor alone and keeps no other reference
        to it, so ``clip_gradients`` and later sums may change it in place."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate gradients of every upstream tensor of this scalar."""
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def matmul(a, b) -> Tensor:
    """``a @ b`` of two 2-D tensors as one graph node."""
    a, b = as_tensor(a), as_tensor(b)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad,
                  parents=(a, b), backward_fn=backward_fn)


def _leaky_relu(x: np.ndarray) -> np.ndarray:
    # max(x, s*x) is the leaky ReLU for 0 < s < 1: bit-equal to
    # where(x > 0, x, s*x), signed zeros and NaN included, without the
    # masked select that makes np.where several times slower
    return np.maximum(x, LEAKY_SLOPE * x)


def _leaky_relu_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    # y > 0 exactly where x > 0, and (1 - s) + s == 1.0 for s = 0.01
    gain = (y > 0) * (1.0 - LEAKY_SLOPE)
    gain += LEAKY_SLOPE
    gain *= g
    return gain


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return g * y * (1.0 - y)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - inner)


# tag -> (forward on the pre-activation, gradient at it from the output)
_ACTIVATION_FORMS = {
    "leaky_relu": (_leaky_relu, _leaky_relu_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "identity": (lambda z: z, lambda g, y: g),
    "softmax": (_softmax, _softmax_grad),
}
ACTIVATIONS = tuple(_ACTIVATION_FORMS)


def apply_activation(z: np.ndarray, tag: str) -> np.ndarray:
    """The activation ``tag`` applied to an array: the forward step of ``dense``.
    A net's tags are checked when it is built."""
    return _ACTIVATION_FORMS[tag][0](z)


def activation_grad(g: np.ndarray, y: np.ndarray, tag: str) -> np.ndarray:
    """The gradient at the pre-activation from upstream ``g`` and the output
    ``y`` of activation ``tag``: the first backward step of ``dense``."""
    return _ACTIVATION_FORMS[tag][1](g, y)


def dense(h, w: Tensor, b: Tensor, tag: str) -> Tensor:
    """One layer, ``activation(h @ w + b)``, as a single graph node.

    The same array operations as ``matmul``, ``add`` and the activation
    composed, so every value is bit-identical to theirs. The node keeps
    only its output; backward forms a gradient only for an input that
    requires one.
    """
    h = as_tensor(h)
    z = h.data @ w.data
    z += b.data
    y = apply_activation(z, tag)

    def backward_fn(g):
        dz = activation_grad(g, y, tag)
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))
        if h.requires_grad:
            h._accumulate(dz @ w.data.T)
        if w.requires_grad:
            w._accumulate(h.data.T @ dz)

    req = h.requires_grad or w.requires_grad or b.requires_grad
    return Tensor(y, requires_grad=req, parents=(h, w, b), backward_fn=backward_fn)


class DenseNet:
    """Stack of affine layers, each with one of the four activation tags.

    ``DenseNet(dims, activations, rng)`` draws Glorot-uniform weights and zero
    biases; :meth:`from_arrays` takes given ones. Both set the layers through
    one checked initializer, so every net holds one known tag per layer.
    """

    def __init__(self, dims, activations, rng: np.random.Generator):
        weights = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        self._set_layers(weights, [np.zeros(w.shape[1]) for w in weights], activations)

    @classmethod
    def from_arrays(cls, weights, biases, activations) -> "DenseNet":
        net = cls.__new__(cls)
        net._set_layers(weights, biases, activations)
        return net

    def _set_layers(self, weights, biases, activations) -> None:
        """Check and copy the layers, one weight, bias and known tag each;
        ``dims`` follows from the weights."""
        activations = list(activations)
        if not weights or not len(weights) == len(biases) == len(activations):
            raise ValueError(
                f"need one weight, bias and activation per layer; got {len(weights)} "
                f"weights, {len(biases)} biases and {len(activations)} activations")
        unknown = [tag for tag in activations if tag not in _ACTIVATION_FORMS]
        if unknown:
            raise ValueError(f"unknown activation {unknown[0]!r}; expected one of {ACTIVATIONS}")
        self.dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
        self.activations = activations
        self.weights = [Tensor(np.array(w, dtype=np.float64), requires_grad=True) for w in weights]
        self.biases = [Tensor(np.array(b, dtype=np.float64), requires_grad=True) for b in biases]

    def forward(self, x) -> Tensor:
        """One fused ``dense`` node per layer on a (B, d) input."""
        h = as_tensor(x)
        if h.data.ndim != 2 or h.data.shape[1] != self.dims[0]:
            raise ValueError(
                f"input of shape {h.data.shape} does not match first layer width ({self.dims[0]})"
            )
        for w, b, tag in zip(self.weights, self.biases, self.activations):
            h = dense(h, w, b, tag)
        return h

    def parameters(self) -> list[Tensor]:
        return [t for pair in zip(self.weights, self.biases) for t in pair]


def cross_entropy(y: Tensor, z) -> Tensor:
    """Mean cross-entropy -sum z_i log y_i between (B, c) predictions y and
    one-hot rows z, as one graph node.

    Each y row must sum to 1 within 1e-6; z must be exactly one-hot. Logs
    are floored at 1e-12.
    """
    if not isinstance(y, Tensor):
        raise TypeError(f"predictions must be a Tensor, got {type(y).__name__}")
    z = np.asarray(z, dtype=np.float64)
    if y.data.ndim != 2 or y.data.shape != z.shape:
        raise ValueError(f"predictions of shape {y.data.shape} and one-hot rows of shape "
                         f"{z.shape}; expected both (B, c)")
    if not (((z == 0.0) | (z == 1.0)).all() and (z.sum(axis=1) == 1.0).all()):
        raise ValueError("z must be one-hot")
    if np.abs(y.data.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("each y row must sum to 1 within 1e-6")
    # one node: the array operations of maximum_scalar, log, mul, tsum, the
    # -1 factor and tmean composed, forward and backward, in their order
    floored = np.maximum(y.data, LOG_EPS)
    per = (z * np.log(floored)).sum(axis=-1) * -1.0
    n = per.size

    def backward_fn(g):
        g = np.broadcast_to(g / n, per.shape)
        g = np.expand_dims(g * -1.0, -1) * z
        g /= floored
        g *= y.data > LOG_EPS
        y._accumulate(g)

    return Tensor(per.sum() / n, requires_grad=y.requires_grad, parents=(y,),
                  backward_fn=backward_fn)


def clip_gradients(params, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Standard stabilizer for stiff losses
    (mixture NLL gradients blow up as variances shrink).
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


MOMENTUM = 0.9            # SGD's momentum, for every trainer


class SGD:
    """Plain SGD with classical momentum ``MOMENTUM``; step() applies and resets grads."""

    def __init__(self, params, lr: float = 1e-2):
        self.params = list(params)
        self.lr = lr
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= MOMENTUM
            v += p.grad
            p.data -= self.lr * v
            p.zero_grad()


# ----------------------------------------------------------------------
# One worker pool for the process, shared by every caller.

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()      # ``worker`` is set on the pool's own threads


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _shared_pool() -> ThreadPoolExecutor:
    """The process's worker pool, built on first use with one thread per
    usable CPU but the caller's; it lives as long as the process."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, usable_cpus() - 1), thread_name_prefix="mclink",
                                       initializer=setattr, initargs=(_pool_thread, "worker", True))
        return _pool


def run_concurrently(tasks: list[Callable[[], object]]) -> list:
    """Run the zero-argument ``tasks`` and return their results in task order.

    With two or more usable CPUs the calling thread runs the first task and
    the shared worker pool the rest. With one CPU or one task, and on a
    pool thread (which must not wait on its own pool), the calling thread
    runs them all, in order. The tasks must only read what they share and
    write disjoint outputs; numpy's ufuncs, draws and BLAS release the
    interpreter lock, so the threads overlap. Every task has finished when
    this returns or raises, and the first exception, the calling thread's
    own before the pool's, reaches the caller.
    """
    if len(tasks) < 2 or usable_cpus() < 2 or getattr(_pool_thread, "worker", False):
        return [task() for task in tasks]
    futures = [_shared_pool().submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


# ----------------------------------------------------------------------
# The training loop every trainer hands a batch-loss closure.

VAL_FRACTION = 0.1         # share of its rows a validating trainer holds out
DECAY_PATIENCE = 3         # epochs without a new best before the rate halves
PLATEAU_TOLERANCE = 1e-4   # relative gain of the best that still counts as progress


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite; carries the history seen so far."""

    def __init__(self, message: str, history: dict):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one :func:`train` run; each trainer keeps its own defaults."""

    epochs: int
    batch_size: int
    lr: float
    min_lr: float | None = None      # floor the rate halves down to; None: lr itself
    plateau_window: int = 5          # epochs at the floor the best must improve over
    clip_norm: float | None = None   # global gradient-norm ceiling; None: no clipping


def train(rng: np.random.Generator, params, n_rows: int,
          batch_loss: Callable[[np.ndarray], Tensor], cfg: TrainConfig,
          validate: Callable[[], float] | None = None, history: dict | None = None,
          loss_name: str = "loss") -> dict:
    """Minibatch SGD with momentum, keeping the best-validation parameters.

    Each epoch draws one ``rng.permutation`` of the ``n_rows`` training
    rows and steps on ``batch_loss(rows)``, the mean loss over a batch,
    with the gradient norm clipped to ``cfg.clip_norm`` when one is set.
    ``validate()`` then returns the validation loss (and may record more
    per-epoch values in ``history``). After ``DECAY_PATIENCE`` epochs
    without a new best the rate halves, down to ``cfg.min_lr`` (the rate
    itself when None). A stall above that floor is often a loss spike a
    smaller step recovers from, so only at the floor does the plateau test
    count: stop once the best has improved by less than
    ``PLATEAU_TOLERANCE`` (relative, ``max(1, |anchor|)``) over
    ``cfg.plateau_window`` epochs (Prechelt, *Early Stopping -- But When?*,
    1998). Without ``validate`` every epoch runs and the last parameters stay.

    ``n_rows`` must be at least 1. Returns ``history``: per-epoch
    ``train_<loss_name>`` (row-weighted) and ``val_<loss_name>``, and
    ``stop``, one of 'plateau', 'max_epochs' or 'diverged'. A non-finite
    loss restores the best parameters and raises TrainingDivergedError
    with the history so far.
    """
    if n_rows < 1:
        raise ValueError("no training rows")
    params = list(params)
    history = {} if history is None else history
    train_values = history.setdefault(f"train_{loss_name}", [])
    val_values = history.setdefault(f"val_{loss_name}", [])
    opt = SGD(params, lr=cfg.lr)
    floor = cfg.lr if cfg.min_lr is None else cfg.min_lr
    best = math.inf
    best_state = [p.data.copy() for p in params]
    bests: list[float] = []
    stale = 0

    def restore_best() -> None:
        if validate is not None:
            for p, saved in zip(params, best_state):
                p.data[...] = saved

    def finite(value: float, stage: str, epoch: int) -> float:
        if not math.isfinite(value):
            restore_best()
            history["stop"] = "diverged"
            raise TrainingDivergedError(
                f"{stage} {loss_name} became non-finite at epoch {epoch}", history)
        return value

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_rows)
        total = 0.0
        for start in range(0, n_rows, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            loss = batch_loss(rows)
            value = finite(float(loss.data), "training", epoch)
            loss.backward()
            if cfg.clip_norm is not None:
                clip_gradients(params, cfg.clip_norm)
            opt.step()
            total += value * len(rows)
        train_values.append(total / n_rows)
        if validate is None:
            continue
        val = finite(float(validate()), "validation", epoch)
        val_values.append(val)
        if val < best:
            best, stale = val, 0
            best_state = [p.data.copy() for p in params]
        else:
            stale += 1
            if stale >= DECAY_PATIENCE and opt.lr > floor:
                opt.lr = max(opt.lr * 0.5, floor)
                stale = 0
        bests.append(best)
        if opt.lr <= floor and len(bests) > cfg.plateau_window:
            anchor = bests[-(cfg.plateau_window + 1)]
            if (anchor - best) / max(1.0, abs(anchor)) < PLATEAU_TOLERANCE:
                history["stop"] = "plateau"
                break
    else:
        history["stop"] = "max_epochs"
    restore_best()
    return history


# ----------------------------------------------------------------------
# Checkpoint container: magic + version + JSON header + packed float64.
# All integers and floats little-endian; arrays row-major.

CHECKPOINT_MAGIC = b"MCLCKPT\x00"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, wrong-version, or wrong-role checkpoint file."""


def save_checkpoint(path, role: str, nets: dict[str, DenseNet], meta: dict | None = None) -> None:
    header = {
        "role": role,
        "meta": meta or {},
        "nets": {
            name: {"dims": list(net.dims), "activations": list(net.activations)}
            for name, net in nets.items()
        },
    }
    blob = json.dumps(header, sort_keys=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for name in header["nets"]:
            for t in nets[name].parameters():
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path, expect_role: str | None = None):
    """Read a checkpoint; returns (role, nets, meta).

    Rejects unknown magic bytes, version mismatches, a truncated file, a
    header that is not a JSON object with ``role``, ``meta`` and, per net,
    a list of positive integer ``dims`` and a list of ``activations``, a
    net whose tag list fails :class:`DenseNet`'s checks (one known tag per
    layer), bytes after the last array, and (when ``expect_role`` is given)
    checkpoints saved for another role, each as a CheckpointError that
    names the file.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        fixed = fh.read(8)
        if len(fixed) != 8:
            raise CheckpointError(f"{path}: truncated header")
        version, header_len = struct.unpack("<II", fixed)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
            role, meta = header["role"], header["meta"]
            specs = {name: (spec["dims"], spec["activations"])
                     for name, spec in header["nets"].items()}
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            raise CheckpointError(f"{path}: malformed header ({err!r})") from err
        if expect_role is not None and role != expect_role:
            raise CheckpointError(f"{path}: role {role!r}, expected {expect_role!r}")
        nets: dict[str, DenseNet] = {}
        for name, (dims, activations) in specs.items():
            if not (isinstance(dims, list) and all(type(d) is int and d > 0 for d in dims)
                    and isinstance(activations, list)):
                raise CheckpointError(f"{path}: net {name!r}: dims must be a list of positive "
                                      f"integers and activations a list")
            weights, biases = [], []
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                w_bytes = fh.read(8 * fan_in * fan_out)
                b_bytes = fh.read(8 * fan_out)
                if len(w_bytes) != 8 * fan_in * fan_out or len(b_bytes) != 8 * fan_out:
                    raise CheckpointError(f"{path}: truncated parameter payload")
                weights.append(np.frombuffer(w_bytes, dtype="<f8").reshape(fan_in, fan_out))
                biases.append(np.frombuffer(b_bytes, dtype="<f8"))
            try:
                nets[name] = DenseNet.from_arrays(weights, biases, activations)
            except ValueError as err:
                raise CheckpointError(f"{path}: net {name!r}: {err}") from err
        extra = len(fh.read())
        if extra:
            raise CheckpointError(f"{path}: {extra} byte(s) after the last array")
    return role, nets, meta
