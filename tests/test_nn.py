"""Autodiff core: ops, losses, optimizer, gradient checks, checkpoints."""

import gc
import itertools
import json
import math
import os
import struct
import threading
import time
import weakref

import numpy as np
import pytest

import helpers as ref
from helpers import gradient_check
from mclink import nn, transceiver
from mclink.dataset import one_hot
from mclink.nn import (
    DenseNet,
    SGD,
    CheckpointError,
    Tensor,
    cross_entropy,
    load_checkpoint,
    save_checkpoint,
)
from mclink.surrogate import ChannelSurrogate, build_mdn_net, mdn_nll

LN4 = 1.3862943611198906


class TestForward:
    def test_identity_layer_passes_input_through(self):
        net = DenseNet.from_arrays([np.eye(3)], [np.zeros(3)], ["identity"])
        x = np.array([[0.3, -1.2, 4.0]])
        assert np.array_equal(net.forward(x).data, x)

    def test_leaky_relu_slope(self):
        out = nn.apply_activation(np.array([-1.0, 2.0]), "leaky_relu")
        assert np.allclose(out, [-0.01, 2.0])

    def test_softmax_symmetry(self):
        out = nn.apply_activation(np.array([0.0, 0.0]), "softmax")
        assert np.allclose(out, [0.5, 0.5])

    def test_softmax_normalized_and_positive(self):
        rng = np.random.default_rng(0)
        out = nn.apply_activation(rng.normal(scale=30.0, size=(50, 7)), "softmax")
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        assert out.min() > 0.0

    def test_shape_mismatch_rejected(self):
        net = DenseNet([3, 2], ["identity"], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="width"):
            net.forward(np.zeros((1, 4)))
        with pytest.raises(ValueError, match="width"):
            net.forward(np.zeros(3))        # one row, not a batch

    def test_forward_deterministic(self):
        net = DenseNet([4, 8, 2], ["leaky_relu", "softmax"], rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(5, 4))
        assert np.array_equal(net.forward(x).data, net.forward(x).data)


def ce_value(y, z):
    """Cross-entropy of a batch given as arrays, as a float."""
    return float(cross_entropy(Tensor(y), z).data)


class TestCrossEntropy:
    def test_exact_hit_is_zero(self):
        z = np.array([[0.0, 1.0, 0.0]])
        assert ce_value(z, z) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_over_four(self):
        y = np.full((1, 4), 0.25)
        z = np.array([[0.0, 0.0, 1.0, 0.0]])
        assert ce_value(y, z) == pytest.approx(LN4, rel=1e-12)

    def test_scalar_example(self):
        assert ce_value(np.array([[0.7, 0.3]]), np.array([[1.0, 0.0]])) == pytest.approx(
            0.35667494393873245, rel=1e-12)

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            ce_value(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="one-hot"):
            ce_value(np.array([[0.5, 0.5]]), np.array([[1.0, 1.0]]))

    def test_rejects_unnormalized_prediction(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ce_value(np.array([[0.9, 0.3]]), np.array([[1.0, 0.0]]))

    def test_takes_only_a_batch_tensor(self):
        y, z = np.array([[0.7, 0.3]]), np.array([[1.0, 0.0]])
        with pytest.raises(TypeError, match="Tensor"):
            cross_entropy(y, z)
        for shape in ((2,), (1, 1, 2)):
            with pytest.raises(ValueError, match="expected both"):
                cross_entropy(Tensor(y.reshape(shape)), z.reshape(shape))

    def test_batch_mean_matches_singles(self):
        y = np.array([[0.7, 0.3], [0.25, 0.75]])
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        singles = [ce_value(y[i:i + 1], z[i:i + 1]) for i in range(2)]
        assert ce_value(y, z) == pytest.approx(np.mean(singles), rel=1e-12)

    def test_duplicating_batch_leaves_mean_reduction_grads_unchanged(self):
        rng = np.random.default_rng(3)
        net = DenseNet([4, 3], ["softmax"], rng=rng)
        x1 = rng.normal(size=(1, 4))
        z1 = np.array([[0.0, 1.0, 0.0]])

        def grads(x, z):
            for p in net.parameters():
                p.zero_grad()
            loss = cross_entropy(net.forward(Tensor(x)), z)
            loss.backward()
            return [p.grad.copy() for p in net.parameters()]

        single = grads(x1, z1)
        double = grads(np.vstack([x1, x1]), np.vstack([z1, z1]))
        for a, b in zip(single, double):
            assert np.allclose(b, a, rtol=1e-12)

    @staticmethod
    def _composed(y, z):
        """The chain the fused node replaced, kept as the reference."""
        per = ref.mul(ref.tsum(ref.mul(Tensor(z), ref.log(ref.maximum_scalar(y, nn.LOG_EPS))),
                               axis=-1), -1.0)
        return ref.tmean(per)

    @staticmethod
    def _predictions(rng, rows, classes):
        y = ref.softmax(Tensor(rng.normal(scale=4.0, size=(rows, classes)))).data
        y[:2] = 0.0                                 # entries below LOG_EPS, floored
        y[0, 0] = 1.0
        y[1, :2] = [1.0 - 1e-13, 1e-13]
        return y

    @pytest.mark.parametrize("rows", [None, 2, 9, 64])
    def test_matches_composed_ops_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows or 1)
        y = self._predictions(rng, rows or 3, 4)
        z = np.eye(4)[rng.integers(0, 4, size=len(y))]
        z[0] = [0.0, 1.0, 0.0, 0.0]                 # the loss reads the floor, no gradient
        cases = [(y, z)] if rows else [(y[0:1], z[0:1]), (y[2:3], z[2:3])]   # None: one row
        for (y, z), upstream in itertools.product(cases, (1.0, -3.5)):
            got_y, want_y = Tensor(y.copy(), requires_grad=True), Tensor(y.copy(),
                                                                        requires_grad=True)
            got, want = cross_entropy(got_y, z), self._composed(want_y, z)
            assert got._parents == (got_y,)          # one node
            assert got.data.tobytes() == want.data.tobytes()
            ref.mul(got, upstream).backward()
            ref.mul(want, upstream).backward()
            assert got_y.grad.tobytes() == want_y.grad.tobytes()

    def test_network_gradients_match_composed_ops(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=3.0, size=(32, 5))
        z = np.eye(3)[rng.integers(0, 3, size=32)]
        grads = []
        for loss in (cross_entropy, self._composed):
            net = DenseNet([5, 8, 3], ["leaky_relu", "softmax"], rng=np.random.default_rng(5))
            loss(net.forward(Tensor(x)), z).backward()
            grads.append([p.grad.tobytes() for p in net.parameters()])
        assert grads[0] == grads[1]

    def test_one_hot_check_accepts_what_isin_accepted(self):
        candidates = [[1.0, 0.0], [0.0, 1.0], [-0.0, 1.0], [0.5, 0.5], [1.0, 1.0],
                      [np.nan, 1.0], [2.0, -1.0], [np.inf, 0.0], [1.0 + 1e-16, 0.0]]
        y = np.array([[0.5, 0.5]])
        for z in map(np.array, candidates):
            old_rule = np.isin(z, (0.0, 1.0)).all() and z.sum() == 1.0
            try:
                ce_value(y, z[None])
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == old_rule, z


class TestBackward:
    def test_zero_gradient_at_minimum(self):
        w = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)   # fits exactly
        x = Tensor(np.array([[1.0, 1.0], [1.0, -1.0]]))
        target = Tensor(np.array([[5.0], [-1.0]]))
        diff = ref.sub(nn.matmul(x, w), target)
        loss = ref.tsum(ref.mul(diff, diff))
        loss.backward()
        assert np.allclose(w.grad, 0.0, atol=1e-12)

    def test_dropped_graph_is_freed_without_cycle_collector(self):
        # a node's backward closure must not refer back to the node, or
        # every graph is a reference cycle that waits for the collector
        rng = np.random.default_rng(10)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        v, c = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=3))
        gc.disable()
        try:
            h = nn.dense(ref.exp(nn.matmul(x, w)), v, c, "softmax")   # binary, unary, dense
            loss = nn.cross_entropy(h, np.eye(3)[[0, 2, 1, 0]])
            loss.backward()
            probes = [weakref.ref(t) for t in (loss, h, h._parents[0], h._parents[0]._parents[0])]
            del loss, h, x
            assert [r() for r in probes] == [None] * len(probes)
        finally:
            gc.enable()
        assert w.grad is not None

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    @pytest.mark.parametrize("act", ["leaky_relu", "sigmoid", "identity", "softmax"])
    def test_gradient_check_each_activation(self, act):
        rng = np.random.default_rng(5)
        net = DenseNet([4, 6, 3], [act, "identity"], rng=rng)
        x = Tensor(rng.normal(size=(3, 4)) + 0.1)
        target = Tensor(rng.normal(size=(3, 3)))

        def loss_fn():
            d = ref.sub(net.forward(x), target)
            return ref.tmean(ref.mul(d, d))

        assert gradient_check(loss_fn, net.parameters()) < 1e-4

    def test_gradient_check_softmax_cross_entropy(self):
        rng = np.random.default_rng(6)
        net = DenseNet([5, 8, 4], ["leaky_relu", "softmax"], rng=rng)
        x = rng.normal(size=(6, 5))
        z = np.zeros((6, 4))
        z[np.arange(6), rng.integers(0, 4, size=6)] = 1.0
        loss_fn = lambda: cross_entropy(net.forward(Tensor(x)), z)
        assert gradient_check(loss_fn, net.parameters()) < 1e-4

    def test_gradient_check_exp_log_power(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)

        def loss_fn():
            return ref.tmean(ref.add(ref.add(ref.log(x), ref.exp(ref.mul(x, 0.3))),
                                     ref.power(x, -0.5)))

        assert gradient_check(loss_fn, [x]) < 1e-4

    def test_log_space_ops_match_direct_forms(self):
        x = np.array([[0.3, -1.2, 2.0], [5.0, 5.0, -3.0]])
        direct = np.log(np.exp(x).sum(axis=1))
        assert np.allclose(ref.logsumexp(Tensor(x), axis=1).data, direct, rtol=1e-14)
        assert np.allclose(ref.log_softmax(Tensor(x)).data,
                           np.log(ref.softmax(Tensor(x)).data), rtol=1e-14)
        # far outside exp's range the shifted forms stay finite
        big = Tensor(np.array([[1000.0, 0.0], [-1000.0, -2000.0]]))
        assert np.allclose(ref.logsumexp(big).data, [1000.0, -1000.0])
        assert np.allclose(ref.log_softmax(big).data, [[0.0, -1000.0], [0.0, -1000.0]])

    def test_gradient_check_log_space_ops_and_axis_mean(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = rng.normal(size=(4, 3))

        def loss_fn():
            z = ref.mul(ref.log_softmax(x, axis=1), Tensor(w))
            return ref.tsum(ref.add(ref.tmean(z, axis=0), ref.logsumexp(ref.mul(x, 0.7), axis=0)))

        assert gradient_check(loss_fn, [x]) < 1e-4

    def test_mean_divides_by_count(self):
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.7])
        assert ref.tmean(Tensor(x)).data == x.sum() / 5


class TestDense:
    COMPOSED = {
        "leaky_relu": ref.leaky_relu,
        "sigmoid": ref.sigmoid,
        "identity": lambda t: t,
        "softmax": ref.softmax,
    }

    @staticmethod
    def _leaves(seed, h_grad, params_grad):
        rng = np.random.default_rng(seed)
        h = Tensor(rng.normal(size=(6, 4)), requires_grad=h_grad)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=params_grad)
        b = Tensor(rng.normal(size=5), requires_grad=params_grad)
        return h, w, b, rng.normal(size=(6, 5))

    @pytest.mark.parametrize("h_grad, params_grad", [(True, True), (False, True), (True, False)])
    @pytest.mark.parametrize("act", ["leaky_relu", "sigmoid", "identity", "softmax"])
    def test_matches_composed_ops_bit_for_bit(self, act, h_grad, params_grad):
        outs, grads = [], []
        for fused in (True, False):
            h, w, b, upstream = self._leaves(11, h_grad, params_grad)
            if fused:
                y = nn.dense(h, w, b, act)
            else:
                y = self.COMPOSED[act](ref.add(nn.matmul(h, w), b))
            ref.tsum(ref.mul(y, Tensor(upstream))).backward()
            outs.append(y.data)
            grads.append([t.grad for t in (h, w, b)])
        assert np.array_equal(outs[0], outs[1])
        for fused_grad, composed_grad in zip(*grads):
            if composed_grad is None:
                assert fused_grad is None
            else:
                assert np.array_equal(fused_grad, composed_grad)

    def test_leaky_relu_matches_where_form_bit_for_bit(self):
        s = nn.LEAKY_SLOPE
        x = np.array([-2.0, -0.0, 0.0, 3.0, -1e-320, 1e-320, np.inf, -np.inf, np.nan])
        g = np.linspace(-1.0, 1.0, x.size)
        t = Tensor(x, requires_grad=True)
        y = ref.leaky_relu(t)
        with np.errstate(invalid="ignore"):     # the loss itself sums inf - inf
            ref.tsum(ref.mul(y, Tensor(g))).backward()
        bits = lambda a: np.asarray(a).view(np.int64)
        assert np.array_equal(bits(y.data), bits(np.where(x > 0, x, s * x)))
        assert np.array_equal(bits(t.grad), bits(g * np.where(x > 0, 1.0, s)))

    def test_tensor_used_twice_gets_summed_gradient(self):
        rng = np.random.default_rng(13)
        upstream = rng.normal(size=(3, 2))
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        ref.tsum(ref.mul(ref.add(x, x), Tensor(upstream))).backward()
        assert np.array_equal(x.grad, upstream + upstream)

        h, w, b, up1 = self._leaves(14, True, True)
        w2 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b2 = Tensor(rng.normal(size=3), requires_grad=True)
        up2 = rng.normal(size=(6, 3))

        def branch_grads(first, second):
            h.zero_grad()
            loss = 0.0
            if first:
                y = nn.dense(h, w, b, "leaky_relu")
                loss = ref.add(loss, ref.tsum(ref.mul(y, Tensor(up1))))
            if second:
                y = nn.dense(h, w2, b2, "sigmoid")
                loss = ref.add(loss, ref.tsum(ref.mul(y, Tensor(up2))))
            loss.backward()
            return h.grad

        alone = branch_grads(True, False) + branch_grads(False, True)
        assert np.array_equal(branch_grads(True, True), alone)

    def test_add_gives_parents_separate_gradients(self):
        rng = np.random.default_rng(15)
        upstream = rng.normal(size=(4, 3))
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        ref.tsum(ref.mul(ref.add(a, b), Tensor(upstream))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        norm = nn.clip_gradients([a, b], max_norm=0.5)
        assert norm == pytest.approx(np.sqrt(2.0 * (upstream * upstream).sum()), rel=1e-12)
        expected = upstream * (0.5 / norm)          # each scaled exactly once
        assert np.array_equal(a.grad, expected) and np.array_equal(b.grad, expected)


def copying_accumulate(self, g):
    """``Tensor._accumulate`` with every first gradient stored as a copy."""
    if self.grad is None:
        self.grad = np.array(g, dtype=np.float64, order="C")
    else:
        self.grad += g


class TestFreshGradients:
    """Producers that make a gradient for one tensor alone hand it over uncopied."""

    @staticmethod
    def _transceiver_batch():
        # dense, the surrogate draw and cross-entropy
        rng = np.random.default_rng(16)
        model = ref.unstandardized_model(rng, image_shape=(8, 8, 1))
        surrogate = ChannelSurrogate(net=build_mdn_net(rng))
        images, labels = rng.uniform(size=(12, 64)), rng.integers(0, 4, size=12)
        y = transceiver.transmit_train(rng, model, surrogate, images)
        nn.cross_entropy(y, one_hot(labels, 4)).backward()
        return model.parameters()

    @staticmethod
    def _mdn_batch():
        rng = np.random.default_rng(17)
        net = build_mdn_net(rng)
        mdn_nll(net, (rng.uniform(size=(40, 2)), rng.normal(size=40))).backward()
        return net.parameters()

    @pytest.mark.parametrize("batch", ["_transceiver_batch", "_mdn_batch"])
    def test_parameter_gradients_match_copying_accumulate(self, monkeypatch, batch):
        params = getattr(self, batch)()
        for a, b in itertools.combinations(params, 2):
            assert not np.shares_memory(a.grad, b.grad)
        kept = [p.grad.tobytes() for p in params]
        monkeypatch.setattr(Tensor, "_accumulate", copying_accumulate)
        assert [p.grad.tobytes() for p in getattr(self, batch)()] == kept

    def test_clip_scales_one_gradient_alone(self):
        for i in range(len(self._transceiver_batch())):
            params = self._transceiver_batch()
            before = [p.grad.copy() for p in params]
            nn.clip_gradients([params[i]], max_norm=1e-9)
            for j, (p, g) in enumerate(zip(params, before)):
                assert (p.grad.tobytes() == g.tobytes()) == (i != j)


class TestSGD:
    def test_zero_learning_rate_is_identity(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([x], lr=0.0)
        ref.mul(x, x).backward()
        opt.step()
        assert x.data[0] == 1.0

    def test_single_quadratic_step(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([x], lr=0.1)
        ref.mul(ref.mul(x, x), 0.5).backward()
        opt.step()
        assert x.data[0] == pytest.approx(0.9, rel=1e-12)
        assert x.grad is None                      # grads reset by the step

    @pytest.mark.parametrize("lr", [0.1, 0.5, 1.0, 1.9])
    def test_quadratic_converges_below_stability_bound(self, lr):
        # heavy-ball steps on x^2 / 2 with momentum 0.9 are stable for
        # lr < 2 * (1 + 0.9) and spiral in by sqrt(0.9) per step
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([x], lr=lr)
        gaps = []
        for _ in range(200):
            ref.mul(ref.mul(x, x), 0.5).backward()
            opt.step()
            gaps.append(abs(float(x.data[0])))
        assert max(gaps[-20:]) < 1e-3 * max(gaps[:20])

    def test_training_reproducible_bit_for_bit(self):
        def run():
            rng = np.random.default_rng(42)
            net = DenseNet([3, 8, 2], ["leaky_relu", "softmax"], rng=rng)
            opt = SGD(net.parameters(), lr=0.05)
            x = rng.normal(size=(16, 3))
            z = np.zeros((16, 2))
            z[np.arange(16), rng.integers(0, 2, size=16)] = 1.0
            for _ in range(20):
                cross_entropy(net.forward(Tensor(x)), z).backward()
                opt.step()
            return [t.data for t in net.parameters()]

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)


class TestTrainLoop:
    """``nn.train`` on one weight with loss w^2 and scripted validation losses."""

    def run(self, val_losses, epochs=None, poison_epoch=None, **settings):
        self.w = w = Tensor(np.array([1.0]), requires_grad=True)
        self.validated = []               # w as each epoch's validation saw it
        script = iter(val_losses)
        calls = []

        def batch_loss(rows):
            calls.append(len(rows))
            loss = ref.tsum(ref.mul(w, w))
            return ref.mul(loss, math.nan) if len(calls) - 1 == poison_epoch else loss

        def validate():
            self.validated.append(w.data.copy())
            return next(script)

        cfg = nn.TrainConfig(**{"epochs": epochs or len(val_losses), "batch_size": 4,
                                "lr": 0.1, **settings})
        return nn.train(np.random.default_rng(0), [w], 4, batch_loss, cfg, validate=validate)

    @pytest.mark.parametrize("val_losses, floor, rates", [
        ([1.0] * 8, 0.01, [0.1] * 4 + [0.05] * 3 + [0.025]),
        ([1.0, 1.0, 1.0, 0.5] + [1.0] * 4, 0.01, [0.1] * 7 + [0.05]),   # a new best resets
        ([1.0] * 12, 0.03, [0.1] * 4 + [0.05] * 3 + [0.03] * 5),       # never below the floor
    ])
    def test_rate_halves_after_three_stale_epochs(self, monkeypatch, val_losses, floor, rates):
        seen = []

        class RecordingSGD(nn.SGD):
            def step(self):
                seen.append(self.lr)
                super().step()

        monkeypatch.setattr(nn, "SGD", RecordingSGD)
        history = self.run(val_losses, min_lr=floor, plateau_window=50)
        assert seen == rates                       # one step per epoch
        assert history["stop"] == "max_epochs"

    def test_plateau_counts_only_at_floor(self):
        # flat losses: the rate reaches its floor 0.025 after epoch 6, and the
        # 2-epoch window then stops at once; with the floor at the rate
        # itself it stops after 3 epochs
        history = self.run([1.0] * 30, min_lr=0.025, plateau_window=2)
        assert history["stop"] == "plateau" and len(history["val_loss"]) == 7
        history = self.run([1.0] * 30, plateau_window=2)
        assert history["stop"] == "plateau" and len(history["val_loss"]) == 3

    @pytest.mark.parametrize("scale, stops", [(10.0, True), (1.0, False)])
    def test_plateau_tolerance_is_relative(self, scale, stops):
        # the same 4e-4 gain per epoch is 8e-5 of an anchor at 10 over the
        # window, below the 1e-4 tolerance, but 8e-4 of one at 1
        history = self.run([scale - 4e-4 * i for i in range(12)], plateau_window=2)
        assert len(history["val_loss"]) == (3 if stops else 12)
        assert history["stop"] == ("plateau" if stops else "max_epochs")

    def test_best_validation_weights_restored(self):
        history = self.run([3.0, 1.0, 2.0, 2.5], plateau_window=50)
        assert history["val_loss"] == [3.0, 1.0, 2.0, 2.5]
        assert history["stop"] == "max_epochs"
        assert np.array_equal(self.w.data, self.validated[1])
        assert not np.array_equal(self.w.data, self.validated[-1])

    @pytest.mark.parametrize("val_losses, poison_epoch, logged", [
        ([2.0, 1.0, 1.5, 1.5], 3, (3, 3)),           # training loss at epoch 3
        ([2.0, 1.0, 1.5, math.inf], None, (4, 3)),   # validation loss at epoch 3
    ])
    def test_non_finite_loss_raises_with_history_and_best_weights(
            self, val_losses, poison_epoch, logged):
        with pytest.raises(nn.TrainingDivergedError, match="epoch 3") as info:
            self.run(val_losses, epochs=10, poison_epoch=poison_epoch, plateau_window=50)
        history = info.value.history
        assert history["stop"] == "diverged"
        assert (len(history["train_loss"]), len(history["val_loss"])) == logged
        assert history["val_loss"] == val_losses[:logged[1]]
        assert np.array_equal(self.w.data, self.validated[1])

    def test_zero_training_rows_rejected(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="no training rows"):
            nn.train(np.random.default_rng(0), [w], 0, lambda rows: ref.tsum(ref.mul(w, w)),
                     nn.TrainConfig(epochs=1, batch_size=4, lr=0.1))

    def test_without_validation_every_epoch_runs_and_last_weights_stay(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        batches = []

        def batch_loss(rows):
            batches.append(rows)
            return ref.mul(ref.tsum(ref.mul(w, w)), float(len(rows) == 4))   # 2 rows: zero loss

        cfg = nn.TrainConfig(epochs=3, batch_size=4, lr=0.1, clip_norm=0.5)
        history = nn.train(np.random.default_rng(0), [w], 10, batch_loss, cfg)
        assert history["stop"] == "max_epochs" and history["val_loss"] == []
        assert [len(rows) for rows in batches] == [4, 4, 2] * 3
        for epoch in range(3):
            rows = np.concatenate(batches[3 * epoch:3 * epoch + 3])
            assert np.array_equal(np.sort(rows), np.arange(10))
        # the first step's gradient 2.0 is clipped to 0.5, so w moves to 0.95;
        # the epoch's loss weights each batch by its rows
        assert history["train_loss"][0] == pytest.approx((4 * 1.0 + 4 * 0.95 ** 2) / 10)
        assert len(history["train_loss"]) == 3 and w.data[0] < 0.95


class TestCheckpoint:
    def _net(self, seed=0):
        return DenseNet([3, 5, 2], ["leaky_relu", "sigmoid"],
                        rng=np.random.default_rng(seed))

    def test_roundtrip_bit_exact(self, tmp_path):
        net = self._net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": net}, {"note": 1})
        role, nets, meta = load_checkpoint(path)
        assert role == "demo_role" and meta == {"note": 1}
        for a, b in zip(net.parameters(), nets["net"].parameters()):
            assert np.array_equal(a.data, b.data)
        assert nets["net"].activations == net.activations

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": self._net()}, {})
        blob = bytearray(path.read_bytes())
        blob[8] = 99                              # bump the version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_rejects_role_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": self._net()}, {})
        with pytest.raises(CheckpointError, match="role"):
            load_checkpoint(path, expect_role="other_role")

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": self._net()}, {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tags, message", [
        (["leaky_relu"], "one weight, bias and activation per layer"),   # one tag short
        (["leaky_relu", "softmax2"], "unknown activation 'softmax2'"),
    ])
    def test_rejects_a_bad_tag_list_naming_the_file(self, tmp_path, tags, message):
        net = self._net()
        net.activations = tags
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": net}, {})
        with pytest.raises(CheckpointError, match=message) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and "'net'" in str(info.value)

    def test_rejects_a_file_ending_in_the_length_field_naming_it(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": self._net()}, {})
        path.write_bytes(path.read_bytes()[:len(nn.CHECKPOINT_MAGIC) + 5])
        with pytest.raises(CheckpointError, match="truncated header") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @staticmethod
    def _header_without(key):
        return lambda header: json.dumps({k: v for k, v in header.items() if k != key}).encode()

    @staticmethod
    def _net_spec_with(key, value=None):
        """Net 'net' without ``key`` or, given a value, with ``key`` set to it."""
        def edit(header):
            spec = {k: v for k, v in header["nets"]["net"].items() if k != key}
            if value is not None:
                spec[key] = value
            return json.dumps({**header, "nets": {"net": spec}}).encode()
        return edit

    @pytest.mark.parametrize("edit", [
        lambda header: b"{not json",
        lambda header: b"\xff\xfe",
        lambda header: json.dumps([header]).encode(),
        _header_without("role"),
        _header_without("nets"),
        _header_without("meta"),
        _net_spec_with("dims"),
        _net_spec_with("activations"),
        _net_spec_with("dims", [3, 5.0, 2]),
        _net_spec_with("activations", 2),
    ], ids=["not-json", "not-utf8", "not-an-object", "no-role", "no-nets", "no-meta",
            "no-dims", "no-activations", "fractional-dim", "activations-not-a-list"])
    def test_rejects_a_malformed_header_naming_the_file(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": self._net()}, {})
        blob = path.read_bytes()
        start = len(nn.CHECKPOINT_MAGIC)
        version, header_len = struct.unpack("<II", blob[start:start + 8])
        body = start + 8
        header = edit(json.loads(blob[body:body + header_len]))
        path.write_bytes(blob[:start] + struct.pack("<II", version, len(header)) + header
                         + blob[body + header_len:])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_rejects_bytes_after_the_last_array(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo_role", {"net": self._net()}, {})
        path.write_bytes(path.read_bytes() + bytes(64))
        with pytest.raises(CheckpointError, match="64 byte") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_multi_net_order_preserved(self, tmp_path):
        nets = {"b_net": self._net(1), "a_net": self._net(2)}
        path = tmp_path / "pair.ckpt"
        save_checkpoint(path, "demo_role", nets, {})
        _, loaded, _ = load_checkpoint(path)
        assert list(loaded) == ["b_net", "a_net"]
        for name in nets:
            for a, b in zip(nets[name].parameters(), loaded[name].parameters()):
                assert np.array_equal(a.data, b.data)


class TestDenseNetConstruction:
    def test_glorot_bound_respected(self):
        net = DenseNet([100, 50], ["identity"], rng=np.random.default_rng(0))
        bound = math.sqrt(6.0 / 150.0)
        w = net.weights[0].data
        assert np.abs(w).max() <= bound and np.abs(w).max() > 0.8 * bound
        assert np.all(net.biases[0].data == 0.0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            DenseNet([2, 2], ["relu6"], rng=np.random.default_rng(0))

    def test_activation_count_must_match(self):
        with pytest.raises(ValueError):
            DenseNet([2, 2, 2], ["identity"], rng=np.random.default_rng(0))

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            DenseNet([2, 2], ["identity"])

    @pytest.mark.parametrize("weights, biases, tags, message", [
        ([np.eye(2)] * 2, [np.zeros(2)] * 2, ["identity"], "per layer"),
        ([np.eye(2)] * 2, [np.zeros(2)], ["identity"] * 2, "per layer"),
        ([np.eye(2)], [np.zeros(2)], ["relu6"], "unknown activation"),
        ([], [], [], "per layer"),
    ])
    def test_from_arrays_checks_its_layers(self, weights, biases, tags, message):
        with pytest.raises(ValueError, match=message):
            DenseNet.from_arrays(weights, biases, tags)

    def test_from_arrays_copies_and_reads_dims(self):
        w = np.ones((3, 2))
        net = DenseNet.from_arrays([w, np.eye(2)], [np.zeros(2)] * 2, ("leaky_relu", "softmax"))
        w[0, 0] = 5.0
        assert net.weights[0].data[0, 0] == 1.0
        assert net.dims == [3, 2, 2] and net.activations == ["leaky_relu", "softmax"]
        assert all(t.requires_grad for t in net.parameters())


class TestRowBlocks:
    """One block rule for the package: near-equal slices, none of one row."""

    @pytest.mark.parametrize("parts", [1, 2, 3, 8, 50])
    def test_near_equal_slices_in_order(self, parts):
        for n in range(0, 400):
            blocks = nn.row_blocks(n, parts)
            sizes = [rows.stop - rows.start for rows in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert 1 <= len(blocks) <= parts
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
            assert len(blocks) == 1 or min(sizes) >= 2
            if n < 4 or parts == 1:
                assert blocks == [slice(0, n)]

    def test_two_parts_cut_at_the_upper_half(self):
        # the surrogate's draw runs two parts, the first taking the odd row
        for n in range(4, 200):
            assert nn.row_blocks(n, 2) == [slice(0, (n + 1) // 2), slice((n + 1) // 2, n)]

    def test_evaluation_blocks_hold_at_most_row_block_rows(self):
        for n in (129, 130, 257, 1000):
            blocks = nn.row_blocks(n, math.ceil(n / nn.ROW_BLOCK))
            assert len(blocks) > 1 and all(b.stop - b.start <= nn.ROW_BLOCK for b in blocks)


class TestRunConcurrently:
    """The one worker pool: the caller runs the first task, the pool the rest."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_results_in_task_order(self, monkeypatch, cpus):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        tasks = [lambda i=i: i * i for i in range(5)]
        assert nn.run_concurrently(tasks) == [0, 1, 4, 9, 16]
        assert nn.run_concurrently([]) == []

    @pytest.mark.parametrize("cpus, n_tasks", [(1, 3), (4, 1)])
    def test_one_cpu_or_one_task_starts_no_thread(self, monkeypatch, cpus, n_tasks):
        def no_pool():
            raise AssertionError("the worker pool was used")

        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "_shared_pool", no_pool)
        ran_on = nn.run_concurrently([threading.get_ident] * n_tasks)
        assert ran_on == [threading.get_ident()] * n_tasks

    def test_tasks_after_the_first_run_on_the_pool(self, monkeypatch):
        monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
        ran_on = nn.run_concurrently([threading.get_ident] * 3)
        assert ran_on[0] == threading.get_ident()
        assert threading.get_ident() not in ran_on[1:]

    # task ``bad`` of 3 fails: on the calling thread or on a pool thread; the
    # others sleep first, so an early return would leave them running
    @pytest.mark.parametrize("cpus, bad", [(1, 1), (2, 0), (2, 2)])
    def test_error_on_either_side_reaches_the_caller_after_every_task(self, monkeypatch,
                                                                      cpus, bad):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        finished = []

        def task(i):
            if i == bad:
                raise FloatingPointError(f"task {i} failed")
            time.sleep(0.05)
            finished.append(i)

        with pytest.raises(FloatingPointError, match=f"task {bad} failed"):
            nn.run_concurrently([lambda i=i: task(i) for i in range(3)])
        # one CPU runs the tasks in order, so those after the failure never start
        assert sorted(finished) == [i for i in range(3) if i != bad and (cpus > 1 or i < bad)]

    def test_call_from_a_pool_thread_runs_inline(self, monkeypatch):
        # with one pool thread, a nested call that waited on the pool would
        # wait for itself
        monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
        seen = {}

        def nested():
            seen["outer"] = threading.get_ident()
            seen["inner"] = nn.run_concurrently([threading.get_ident] * 3)

        caller = threading.Thread(target=lambda: nn.run_concurrently([lambda: None, nested]),
                                  daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert seen["outer"] != caller.ident
        assert seen["inner"] == [seen["outer"]] * 3

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert nn.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert nn.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert nn.usable_cpus() == 1
