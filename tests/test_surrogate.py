"""Mixture-density channel network: pdf, heads, NLL, sampling, fitting."""

import gc
import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import helpers as ref
from helpers import (
    FrozenDraws,
    gradient_check,
    mixture,
    mixture_mean,
    mixture_pdf,
    mixture_variance,
    sample_surrogate,
    small_mdn_net,
    trapezoid,
)
from mclink import nn
from mclink.channel import normalized_slot_moments, scenario, with_overrides
from mclink.nn import Tensor
from mclink.surrogate import (
    ChannelSurrogate,
    FIT_CONFIG,
    HALF_LOG_2PI,
    LOGVAR_MAX,
    LOGVAR_MIN,
    SIGMA2_MIN,
    SURROGATE_ROLE,
    build_mdn_net,
    fit_channel,
    generate_pairs,
    mdn_forward,
    mdn_nll,
    single_gaussian_nll,
    write_pairs_csv,
)

S1 = scenario("scenario1")
INV_SQRT_2PI = 0.3989422804014327
HALF_LN_2PI = 0.9189385332046727
# expected normalized symbol for the saturated context (1, 1) on scenario 1
MEAN_AT_FULL_CONTEXT = 1.0340127962082382


def zeroed_final_layer(net):
    net.weights[-1].data[:] = 0.0
    net.biases[-1].data[:] = 0.0
    return net


# -- the composed ops the fused head nodes replaced, kept as the reference --

def columns(t, lo, hi):
    return ref.getitem(t, (slice(None), slice(lo, hi)))


def ref_head_tensors(raw, h):
    pi = ref.softmax(columns(raw, 0, h), axis=-1)
    mu = columns(raw, h, 2 * h)
    logvar = ref.clip(columns(raw, 2 * h, 3 * h), LOGVAR_MIN, LOGVAR_MAX)
    return pi, mu, ref.exp(logvar)


def ref_mdn_nll(raw, targets):
    h = raw.data.shape[1] // 3
    log_pi = ref.log_softmax(columns(raw, 0, h), axis=-1)
    mu = columns(raw, h, 2 * h)
    logvar = ref.clip(columns(raw, 2 * h, 3 * h), LOGVAR_MIN, LOGVAR_MAX)
    diff = ref.sub(mu, Tensor(targets.reshape(-1, 1)))
    log_kernel = ref.sub(
        ref.mul(ref.add(logvar, ref.mul(ref.mul(diff, diff), ref.exp(ref.neg(logvar)))), -0.5),
        HALF_LOG_2PI)
    return ref.neg(ref.tmean(ref.logsumexp(ref.add(log_pi, log_kernel), axis=-1)))


def ref_sample(rng, raw, h):
    pi_t, mu_t, s2_t = ref_head_tensors(raw, h)
    n = pi_t.data.shape[0]
    u = rng.random(n)
    idx = (u[:, None] > np.cumsum(pi_t.data, axis=1)).sum(axis=1)
    idx = np.minimum(idx, pi_t.data.shape[1] - 1)
    eps = rng.standard_normal(n)
    mu_sel = ref.take_rows(mu_t, idx)
    s2_sel = ref.take_rows(s2_t, idx)
    return ref.add(mu_sel, ref.mul(ref.sqrt(s2_sel), Tensor(eps)))


def frame_contexts(w):
    """The frame-major (B*k, 2) context rows of (B, k) frames: symbol j gets
    (w_j, w_{j-1}), with a silent slot before the frame."""
    prev = np.zeros_like(w)
    prev[:, 1:] = w[:, :-1]
    return np.stack([w.reshape(-1), prev.reshape(-1)], axis=1)


def fold_context_grad(g, b, k):
    """Context-row gradients on (B, k) frames, summed as the composed graph
    of slices, reshapes and joins summed them: each symbol's own column,
    plus the successor's ISI column scattered into zeros."""
    g = g.reshape(b, k, 2)
    own = g[:, :, 0].copy()
    isi = np.zeros((b, k))
    isi[:, :-1] = g[:, 1:, 1]
    own += isi
    return own


class FixedOutput:
    """Stands in for the mixture net: returns one given raw output tensor."""

    def __init__(self, raw):
        self.raw = raw

    def forward(self, x):
        return self.raw


def head_outputs(rng, rows, h):
    """Raw (rows, 3h) outputs with log-variances on both sides of the clamp
    and at its bounds, where its gradient stops."""
    raw = rng.normal(scale=3.0, size=(rows, 3 * h))
    logvar = raw[:, 2 * h:]
    logvar += rng.choice([-14.0, 0.0, 3.0], size=logvar.shape)
    logvar.flat[0:4] = [-30.0, 30.0, LOGVAR_MIN, LOGVAR_MAX]
    return raw


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMixtureParams:
    def test_standard_normal_density(self):
        mp = mixture(pi=[0.5, 0.5], mu=[0.0, 0.0], sigma2=[1.0, 1.0])
        assert mixture_pdf(mp, 0.0)[0] == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_degenerate_weight_selects_single_kernel(self):
        mp = mixture(pi=[1.0, 0.0], mu=[0.3, 9.9], sigma2=[0.04, 1.0])
        lone = mixture(pi=[1.0], mu=[0.3], sigma2=[0.04])
        for w in (-0.5, 0.3, 1.1):
            assert mixture_pdf(mp, w)[0] == pytest.approx(mixture_pdf(lone, w)[0], rel=1e-12)

    def test_bimodal_value(self):
        mp = mixture(pi=[0.5, 0.5], mu=[-1.0, 1.0], sigma2=[1.0, 1.0])
        assert mixture_pdf(mp, 0.0)[0] == pytest.approx(0.24197072451914337, rel=1e-12)

    def test_mean_and_variance(self):
        mp = mixture(pi=[0.25, 0.75], mu=[0.0, 2.0], sigma2=[1.0, 4.0])
        assert mixture_mean(mp)[0] == pytest.approx(1.5)
        assert mixture_variance(mp)[0] == pytest.approx(
            0.25 * 1 + 0.75 * 4 + 0.25 * 2.25 + 0.75 * 0.25)

    def test_integrates_to_one(self):
        grid = np.linspace(-10.0, 10.0, 20001)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            raw = rng.uniform(0.2, 3.0, size=2)
            mp = mixture(pi=raw / raw.sum(), mu=rng.uniform(-1, 2, 2),
                         sigma2=rng.uniform(0.01, 2.0, 2))
            mass = trapezoid(mixture_pdf(mp, grid)[:, 0], grid)
            assert abs(mass - 1.0) < 1e-3


class TestMdnForward:
    def test_zero_final_layer_gives_unit_mixture(self):
        net = zeroed_final_layer(build_mdn_net(np.random.default_rng(0)))
        mp = mdn_forward(net, np.array([[0.3, 0.7]]))
        assert np.allclose(mp.pi, [0.5, 0.5])
        assert np.allclose(mp.mu, [0.0, 0.0])
        assert np.allclose(mp.sigma2, [1.0, 1.0])

    def test_weights_normalized_for_any_context(self):
        net = build_mdn_net(np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(20):
            mp = mdn_forward(net, rng.uniform(size=(1, 2)))
            assert abs(mp.pi.sum() - 1.0) < 1e-6

    def test_batched_contexts(self):
        net = build_mdn_net(np.random.default_rng(1))
        ctx = np.random.default_rng(3).uniform(size=(8, 2))
        mp = mdn_forward(net, ctx)
        assert mp.pi.shape == (8, 2)
        single = mdn_forward(net, ctx[4:5])
        assert np.allclose(mp.mu[4], single.mu[0])

    def test_variance_clamped_into_bounds(self):
        net = zeroed_final_layer(build_mdn_net(np.random.default_rng(0)))
        net.biases[-1].data[4:6] = [-50.0, 50.0]   # extreme log-variances
        mp = mdn_forward(net, np.array([[0.5, 0.5]]))
        assert mp.sigma2[0, 0] == pytest.approx(1e-6)
        assert mp.sigma2[0, 0] >= SIGMA2_MIN     # exp rounds the clamped floor up, not below
        assert mp.sigma2[0, 1] == pytest.approx(1e2)


class TestMdnNll:
    def _spiked_net(self, mu1=0.3):
        # final bias pins the heads: pi ~ [1, 0], mu = [mu1, .], sigma2 = [1, .]
        net = zeroed_final_layer(build_mdn_net(np.random.default_rng(0)))
        net.biases[-1].data[:] = [40.0, -40.0, mu1, 5.0, 0.0, 0.0]
        return net

    def test_single_pair_at_kernel_mean(self):
        net = self._spiked_net(mu1=0.3)
        loss = mdn_nll(net, (np.array([[0.5, 0.5]]), np.array([0.3])))
        assert float(loss.data) == pytest.approx(HALF_LN_2PI, rel=1e-9)

    def test_matches_mixture_pdf_route(self):
        net = build_mdn_net(np.random.default_rng(4))
        nll = float(mdn_nll(net, (np.array([[0.2, 0.9]]), np.array([0.7]))).data)
        dens = mixture_pdf(mdn_forward(net, np.array([[0.2, 0.9]])), 0.7)[0]
        assert nll == pytest.approx(-math.log(dens), rel=1e-9)

    def test_duplicating_batch_leaves_mean_nll_unchanged(self):
        net = build_mdn_net(np.random.default_rng(5))
        ctx, tgt = np.array([[0.1, 0.2], [0.9, 0.4]]), np.array([0.15, 0.8])
        once = float(mdn_nll(net, (ctx, tgt)).data)
        twice = float(mdn_nll(net, (np.tile(ctx, (2, 1)), np.tile(tgt, 2))).data)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_empty_batch_rejected(self):
        net = build_mdn_net(np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            mdn_nll(net, (np.zeros((0, 2)), np.zeros(0)))

    def test_one_target_per_context_required(self):
        # a length mismatch used to broadcast into a loss over the wrong pairs
        net = build_mdn_net(np.random.default_rng(0))
        for ctx, tgt in (((5, 2), (1,)), ((1, 2), (3,)), ((4, 2), (4, 1))):
            with pytest.raises(ValueError, match="contexts"):
                mdn_nll(net, (np.zeros(ctx), np.zeros(tgt)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        net = small_mdn_net(rng, hidden=6)
        ctx = rng.uniform(size=(5, 2))
        tgt = rng.uniform(size=5)
        assert gradient_check(lambda: mdn_nll(net, (ctx, tgt)), net.parameters()) < 1e-4

    def test_nll_decreases_on_synthetic_gaussian_data(self):
        rng = np.random.default_rng(7)
        ctx = rng.uniform(size=(2000, 2))
        tgt = ctx[:, 0] + 0.05 * rng.standard_normal(2000)
        net = build_mdn_net(rng)
        opt = nn.SGD(net.parameters(), lr=1e-3)
        history = []
        for _ in range(10):
            order = rng.permutation(2000)
            total = 0.0
            for start in range(0, 2000, 256):
                sel = order[start:start + 256]
                loss = mdn_nll(net, (ctx[sel], tgt[sel]))
                loss.backward()
                opt.step()
                total += float(loss.data) * len(sel)
            history.append(total / 2000)
        assert history[9] < history[0]


class TestGeneratePairs:
    def test_forced_silence_yields_zero_symbols(self):
        class SilentUniform:
            """Generator facade that pins the context draws at zero."""

            def __init__(self, rng):
                self._rng = rng

            def uniform(self, size=None):
                return np.zeros(size)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        quiet = with_overrides(S1, noise_std=0.0)
        _, w_rx = generate_pairs(SilentUniform(np.random.default_rng(0)), quiet, 200)
        assert np.all(w_rx == 0.0)

    def test_same_seed_reproduces_pairs(self):
        a = generate_pairs(np.random.default_rng(9), S1, 300)
        b = generate_pairs(np.random.default_rng(9), S1, 300)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_conditional_mean_of_saturated_bucket(self):
        rng = np.random.default_rng(10)
        ctx, tgt = generate_pairs(rng, S1, 20_000)
        bucket = (ctx[:, 0] >= 0.95)
        # E[w_rx] = E[w_curr] + E[w_prev] * isi ratio = 0.975 + 0.5 * 0.0340
        expected = 0.975 + 0.5 * (MEAN_AT_FULL_CONTEXT - 1.0)
        assert abs(tgt[bucket].mean() - expected) < 0.01

    @pytest.mark.parametrize("memory", [0, 1, 2])
    def test_pairs_follow_the_slot_law(self, memory):
        p = with_overrides(S1, memory=memory)
        contexts, w_rx = generate_pairs(np.random.default_rng(13), p, 10_000)
        mean, var = np.array([normalized_slot_moments(p, w_curr, [w_prev])
                              for w_curr, w_prev in contexts]).T
        # contexts whose mean sits 6 sd above zero, where the clamp plays no part
        keep = mean >= 6.0 * np.sqrt(var)
        z = (w_rx[keep] - mean[keep]) / np.sqrt(var[keep])
        n = z.size
        assert n > 7000
        assert abs(z.mean()) < 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)

    def test_csv_export(self, tmp_path):
        ctx, tgt = generate_pairs(np.random.default_rng(1), S1, 5)
        path = tmp_path / "pairs.csv"
        write_pairs_csv(path, (ctx, tgt))
        lines = path.read_text().splitlines()
        assert lines[0] == "w_curr,w_prev,w_rx"
        assert len(lines) == 6
        assert lines[1] == f"{float(ctx[0, 0])!r},{float(ctx[0, 1])!r},{float(tgt[0])!r}"

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_pairs(np.random.default_rng(0), S1, 0)


class TestSampleSurrogate:
    def test_degenerate_mixture_returns_mean(self):
        # logits (0, -800) give pi = (1, 0) exactly; sigma2 sits at its floor
        raw = Tensor(np.array([[0.0, -800.0, 0.42, 9.0, math.log(1e-6), 0.0]]))
        rng = np.random.default_rng(0)
        draws = np.array([sample_surrogate(rng, raw).data[0] for _ in range(50)])
        assert np.abs(draws - 0.42).max() < 5e-3

    def test_empirical_mean_matches_mixture_mean(self):
        mp = mixture(pi=[0.3, 0.7], mu=[0.0, 1.0], sigma2=[0.04, 0.09])
        row = np.concatenate([np.log(mp.pi), mp.mu, np.log(mp.sigma2)], axis=1)
        draws = sample_surrogate(np.random.default_rng(1), Tensor(np.tile(row, (100_000, 1)))).data
        se = math.sqrt(mixture_variance(mp)[0] / 100_000)
        assert abs(draws.mean() - mixture_mean(mp)[0]) < 3 * se

    def test_reparameterized_gradient_through_mean(self):
        raw = Tensor(np.array([[0.0, -800.0, 0.5, 2.0, math.log(0.25), math.log(0.25)]]),
                     requires_grad=True)
        frozen = FrozenDraws([0], [0.37])

        def loss_fn():
            return ref.tsum(sample_surrogate(frozen, raw))

        loss_fn().backward()
        assert raw.grad[0, 2] == pytest.approx(1.0, rel=1e-12)
        assert raw.grad[0, 3] == 0.0
        assert np.all(raw.grad[0, :2] == 0.0)       # the component is held constant
        assert gradient_check(loss_fn, [raw]) < 1e-6


class TestFusedHeads:
    """mdn_nll and the surrogate draw are one node each, bit-identical to the
    composed ops above: loss, draws and every gradient, signed zeros included."""

    SHAPES = [(1, 2), (13, 2), (256, 2), (7, 3), (5, 9)]

    @pytest.mark.parametrize("rows,h", SHAPES)
    def test_nll_node_matches_composed_ops(self, rows, h):
        rng = np.random.default_rng(rows * 10 + h)
        data = head_outputs(rng, rows, h)
        targets = rng.normal(scale=4.0, size=rows)
        for upstream in (1.0, -2.7):
            got_raw = Tensor(data.copy(), requires_grad=True)
            want_raw = Tensor(data.copy(), requires_grad=True)
            got = mdn_nll(FixedOutput(got_raw), (np.zeros((rows, 2)), targets))
            want = ref_mdn_nll(want_raw, targets)
            assert got._parents == (got_raw,)           # one node on the raw output
            assert same_bytes(got.data, want.data)
            ref.mul(got, upstream).backward()
            ref.mul(want, upstream).backward()
            assert same_bytes(got_raw.grad, want_raw.grad)

    def test_nll_parameter_gradients_match_composed_ops(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ctx, tgt = rng.uniform(size=(64, 2)), rng.normal(size=64)
            got_net, want_net = build_mdn_net(np.random.default_rng(seed)), build_mdn_net(
                np.random.default_rng(seed))
            for net in (got_net, want_net):
                net.biases[-1].data[4:6] = [-16.0, 6.0]    # clamp active on most rows
            got = mdn_nll(got_net, (ctx, tgt))
            want = ref_mdn_nll(want_net.forward(Tensor(ctx)), tgt)
            assert same_bytes(got.data, want.data)
            got.backward()
            want.backward()
            for a, b in zip(got_net.parameters(), want_net.parameters()):
                assert same_bytes(a.grad, b.grad)

    @pytest.mark.parametrize("rows,h", SHAPES)
    def test_draw_node_matches_composed_ops(self, rows, h):
        rng = np.random.default_rng(rows * 10 + h + 1)
        data = head_outputs(rng, rows, h)
        weights = rng.normal(size=rows)
        weights[::4], weights[1::4] = 0.0, -0.0         # zero upstream gradients of both signs
        frozen = (rng.integers(0, h, size=rows), rng.standard_normal(rows))
        for frozen_draws in (False, True):
            got_raw = Tensor(data.copy(), requires_grad=True)
            want_raw = Tensor(data.copy(), requires_grad=True)
            if frozen_draws:
                got_rng, want_rng = FrozenDraws(*frozen), FrozenDraws(*frozen)
            else:
                got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
            got = sample_surrogate(got_rng, got_raw)
            want = ref_sample(want_rng, want_raw, h)
            assert got._parents == (got_raw,)
            assert same_bytes(got.data, want.data)
            if not frozen_draws:
                assert got_rng.random() == want_rng.random()   # the same draws were spent
            ref.tsum(ref.mul(got, Tensor(weights))).backward()
            ref.tsum(ref.mul(want, Tensor(weights))).backward()
            assert same_bytes(got_raw.grad, want_raw.grad)

    def test_sample_tensor_context_gradient_matches_composed_ops(self):
        surr = ChannelSurrogate(net=build_mdn_net(np.random.default_rng(8)))
        surr.net.biases[-1].data[4] = -16.0
        w = np.random.default_rng(9).uniform(size=(3, 16))
        got_w = Tensor(w, requires_grad=True)
        want_ctx = Tensor(frame_contexts(w), requires_grad=True)
        got = surr.sample_tensor(got_w, np.random.default_rng(10))
        want = ref_sample(np.random.default_rng(10), surr.net.forward(want_ctx), surr.h)
        assert same_bytes(got.data, want.data.reshape(3, 16))
        ref.tsum(ref.mul(got, got)).backward()
        ref.tsum(ref.mul(want, want)).backward()
        assert same_bytes(got_w.grad, fold_context_grad(want_ctx.grad, 3, 16))


class TestFrozenDraw:
    """``sample_tensor`` is one node for the frozen net and its draw, run on
    two fixed row blocks; draws and frame gradients are bit-identical to
    ``DenseNet.forward`` on the frames' context rows, then the draw on its
    raw output, at any CPU count."""

    # context rows b * k -> (b, k)
    FRAMES = {1: (1, 1), 2: (1, 2), 3: (3, 1), 4: (2, 2), 5: (5, 1), 17: (17, 1),
              48: (3, 16), 1024: (64, 16), 1920: (120, 16)}

    @staticmethod
    def _surrogate():
        surr = ChannelSurrogate(net=build_mdn_net(np.random.default_rng(60)))
        surr.net.biases[-1].data[4] = -16.0         # the log-variance clamp stops some rows
        return surr

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows", list(FRAMES))
    def test_matches_the_composed_reference(self, monkeypatch, cpus, rows):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        surr = self._surrogate()
        b, k = self.FRAMES[rows]
        rng = np.random.default_rng(rows)
        w = rng.uniform(size=(b, k))
        weights = rng.normal(size=rows)
        weights[::4], weights[1::4] = 0.0, -0.0         # zero upstream gradients of both signs
        got_w = Tensor(w, requires_grad=True)
        want_ctx = Tensor(frame_contexts(w), requires_grad=True)
        got_rng, want_rng = np.random.default_rng(61), np.random.default_rng(61)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # interleave the two blocks' threads finely
        try:
            got = surr.sample_tensor(got_w, got_rng)
            ref.tsum(ref.mul(got, Tensor(weights.reshape(b, k)))).backward()
        finally:
            sys.setswitchinterval(switch)
        assert all(t.grad is None for t in surr.net.parameters())   # the draw's own backward
        want = sample_surrogate(want_rng, surr.net.forward(want_ctx))
        ref.tsum(ref.mul(want, Tensor(weights))).backward()
        assert got._parents == (got_w,)                 # one node on the frames
        assert same_bytes(got.data, want.data.reshape(b, k))
        assert got_rng.random() == want_rng.random()    # the same draws were spent
        assert same_bytes(got_w.grad, fold_context_grad(want_ctx.grad, b, k))

    def test_second_block_runs_on_a_worker_with_two_cpus(self, monkeypatch):
        ran_on = []
        real = nn.apply_activation

        def spy(z, tag):
            ran_on.append(threading.get_ident())
            return real(z, tag)

        monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
        monkeypatch.setattr(nn, "apply_activation", spy)
        self._surrogate().sample_tensor(Tensor(np.full((4, 16), 0.5)), np.random.default_rng(62))
        caller = threading.get_ident()
        # five layers and the softmax per block, one block on each thread
        assert ran_on.count(caller) == 6 and len(ran_on) == 12

    def test_holds_no_reference_to_its_output(self):
        # a node that did would make every batch's graph a reference cycle,
        # freed only by the cyclic collector
        surr = self._surrogate()
        w = Tensor(np.random.default_rng(63).uniform(size=(2, 16)), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            out = surr.sample_tensor(w, np.random.default_rng(64))
            probe = weakref.ref(out)
            ref.tsum(out).backward()
            del out
            assert probe() is None
        finally:
            gc.enable()
        assert w.grad is not None

    def test_checks_frozen_net_and_context_width(self):
        surr = ChannelSurrogate(net=build_mdn_net(np.random.default_rng(65)))
        for shape in ((4,), (2, 4, 2)):
            with pytest.raises(ValueError, match="frames"):
                surr.sample_tensor(Tensor(np.zeros(shape)), np.random.default_rng(0))


class TestChannelSurrogate:
    def test_components_come_from_the_net(self, tmp_path):
        surr = ChannelSurrogate(net=build_mdn_net(np.random.default_rng(5)))
        assert surr.h == 2
        surr.save(tmp_path / "surrogate.ckpt")
        assert nn.load_checkpoint(tmp_path / "surrogate.ckpt")[2]["h"] == 2   # still written
        with pytest.raises(TypeError):
            ChannelSurrogate(net=surr.net, h=2)

    def test_checkpoint_roundtrip(self, tmp_path):
        net = build_mdn_net(np.random.default_rng(5))
        surr = ChannelSurrogate(net=net, channel={"name": "scenario1"})
        path = tmp_path / "surrogate.ckpt"
        surr.save(path)
        loaded = ChannelSurrogate.load(path)
        assert loaded.channel == {"name": "scenario1"}
        for a, b in zip(surr.net.parameters(), loaded.net.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_old_format_checkpoint_loads_and_samples(self, tmp_path):
        # checkpoints written before the sampling modes were dropped carry
        # two more meta keys; they load and draw like a current one
        net = build_mdn_net(np.random.default_rng(5))
        path = tmp_path / "old.ckpt"
        nn.save_checkpoint(path, SURROGATE_ROLE, {"mdn": net},
                           {"h": 2, "sample_mode": "sample", "temperature": 0.5,
                            "channel": {"scenario": "scenario1"}})
        loaded = ChannelSurrogate.load(path)
        current = ChannelSurrogate(net=net)
        frames = Tensor(np.random.default_rng(6).uniform(size=(2, 8)))
        draws = loaded.sample_tensor(frames, np.random.default_rng(7)).data
        assert loaded.channel == {"scenario": "scenario1"}
        assert np.array_equal(draws, current.sample_tensor(frames, np.random.default_rng(7)).data)


@pytest.fixture(scope="module")
def fitted_surrogate():
    rng = np.random.default_rng(12)
    pairs = generate_pairs(rng, S1, 12_000)
    surr, history = fit_channel(rng, S1, FIT_CONFIG, pairs=pairs)
    return surr, history, pairs


class TestFitChannel:
    def test_zero_epochs_returns_initial_net(self):
        pairs = generate_pairs(np.random.default_rng(1), S1, 1200)
        rng_fit = np.random.default_rng(11)
        surr, history = fit_channel(rng_fit, S1, replace(FIT_CONFIG, epochs=0), pairs=pairs)
        reference = build_mdn_net(np.random.default_rng(11))
        for a, b in zip(surr.net.parameters(), reference.parameters()):
            assert np.array_equal(a.data, b.data)
        assert history["train_nll"] == []

    def test_refuses_a_link_with_more_memory_than_the_context(self):
        # a context holds one previous slot, so a lag-2 link's ISI lies beyond it
        pairs = generate_pairs(np.random.default_rng(1), S1, 100)
        for memory in (0, 1):
            fit_channel(np.random.default_rng(2), with_overrides(S1, memory=memory),
                        replace(FIT_CONFIG, epochs=0), pairs=pairs)
        with pytest.raises(ValueError, match="memory = 2"):
            fit_channel(np.random.default_rng(2), with_overrides(S1, memory=2),
                        replace(FIT_CONFIG, epochs=0), pairs=pairs)

    def test_beats_single_gaussian(self, fitted_surrogate):
        surr, history, pairs = fitted_surrogate
        ctx, tgt = pairs
        n_val = len(tgt) // 10
        held_nll = float(mdn_nll(surr.net, (ctx[:n_val], tgt[:n_val])).data)
        gauss = single_gaussian_nll(tgt[n_val:], tgt[:n_val])
        assert held_nll <= gauss
        assert history["val_nll"][-1] <= history["val_nll"][0]

    def test_saturated_context_mean(self, fitted_surrogate):
        surr, _, _ = fitted_surrogate
        # (1,1) is the thin corner of the uniform context draw, hence the
        # wider band than the dense mid-range contexts get
        assert mixture_mean(mdn_forward(surr.net, np.array([[1.0, 1.0]])))[0] == pytest.approx(
            MEAN_AT_FULL_CONTEXT, abs=0.07)

    def test_trained_variance_within_factor_two_of_simulator(self, fitted_surrogate):
        surr, _, _ = fitted_surrogate
        for w_curr in (0.5, 0.75, 1.0):
            for w_prev in (0.25, 0.75):
                mp = mdn_forward(surr.net, np.array([[w_curr, w_prev]]))
                _, sim_var = normalized_slot_moments(S1, w_curr, [w_prev])
                assert mixture_variance(mp)[0] > 0.0
                assert 0.5 < mixture_variance(mp)[0] / sim_var < 2.0

    def test_trained_mixture_normalizes_over_line(self, fitted_surrogate):
        surr, _, _ = fitted_surrogate
        grid = np.linspace(-10.0, 10.0, 20001)
        for w_curr in (0.0, 0.25, 0.5, 0.75, 1.0):
            for w_prev in (0.0, 0.5, 1.0):
                mp = mdn_forward(surr.net, np.array([[w_curr, w_prev]]))
                mass = trapezoid(mixture_pdf(mp, grid)[:, 0], grid)
                assert abs(mass - 1.0) < 1e-3

    def test_non_finite_loss_raises_with_history(self):
        # the log-space NLL stays finite under exploding weights (the log
        # variance is clamped), so the divergence guard is exercised by
        # poisoned observations
        contexts, targets = generate_pairs(np.random.default_rng(2), S1, 600)
        targets[7] = float("nan")
        with pytest.raises(nn.TrainingDivergedError) as info:
            fit_channel(np.random.default_rng(3), S1,
                        replace(FIT_CONFIG, epochs=5), pairs=(contexts, targets))
        assert info.value.history["stop"] == "diverged"
