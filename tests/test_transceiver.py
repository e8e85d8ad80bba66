"""Semantic pipeline: encoding, surrogate transit, training, evaluation."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from helpers import FrozenDraws, gradient_check, small_mdn_net, unstandardized_model
from mclink import nn, transceiver
from mclink.channel import observe_frames, scenario, with_overrides
from mclink.dataset import make_dataset, one_hot
from mclink.nn import DenseNet, Tensor
from mclink.surrogate import (
    ChannelSurrogate,
    FIT_CONFIG,
    fit_channel,
    generate_pairs,
)
from mclink.transceiver import (
    SemanticModel,
    TRAIN_CONFIG,
    build_semantic_model,
    encode_batch,
    evaluate_accuracy,
    standardization_stats,
    train_end_to_end,
    transmit_eval,
    transmit_train,
    trial_accuracy,
    wilson_interval,
)

S1 = scenario("scenario1")


def ref_transmit_eval(rng, model, p, images):
    """Evaluation's per-trial step as it ran before the transmit side was
    hoisted: encode the images, then channel and decoder."""
    w = encode_batch(model, images).data
    return model.decoder.forward(Tensor(observe_frames(rng, p, w))).data


def serial_trial_accuracy(rng, test_set, n_trials, predict):
    """The trial loop as it ran before its trials ran concurrently: one
    after another on the calling thread."""
    seeds = rng.integers(0, 2 ** 63 - 1, size=n_trials)
    correct = sum(int((predict(np.random.default_rng(int(seed))) == test_set.labels).sum())
                  for seed in seeds)
    total = n_trials * len(test_set)
    return (correct / total, *wilson_interval(correct, total))


class IdentitySurrogate:
    """Channel stub that returns the transmitted symbol unchanged."""

    def sample_tensor(self, w, rng):
        return w


@pytest.fixture(scope="module")
def small_model():
    return unstandardized_model(np.random.default_rng(0))


@pytest.fixture(scope="module")
def frozen_surrogate():
    rng = np.random.default_rng(1)
    pairs = generate_pairs(rng, S1, 6000)
    surr, _ = fit_channel(rng, S1, FIT_CONFIG, pairs=pairs)
    return surr


class TestEncode:
    def test_outputs_are_valid_release_fractions(self, small_model):
        rng = np.random.default_rng(2)
        w = encode_batch(small_model, rng.uniform(size=(1, 256))).data
        assert w.shape == (1, 16)
        assert np.all((w > 0.0) & (w < 1.0))

    def test_zeroed_quantizer_head_gives_half(self, small_model):
        model = unstandardized_model(np.random.default_rng(3))
        model.quantizer.weights[-1].data[:] = 0.0
        model.quantizer.biases[-1].data[:] = 0.0
        w = encode_batch(model, np.random.default_rng(4).uniform(size=(1, 256))).data
        assert np.allclose(w, 0.5)

    def test_deterministic(self, small_model):
        x = np.random.default_rng(5).uniform(size=(1, 256))
        assert np.array_equal(encode_batch(small_model, x).data,
                              encode_batch(small_model, x).data)

    def test_dimension_mismatch_rejected(self, small_model):
        with pytest.raises(ValueError, match="expects"):
            encode_batch(small_model, np.zeros(100))
        with pytest.raises(ValueError, match="expects"):
            encode_batch(small_model, np.zeros((3, 64)))

    def test_release_budget_respected(self, small_model):
        rng = np.random.default_rng(6)
        w = encode_batch(small_model, rng.uniform(size=(40, 256))).data
        released = np.round(w * S1.max_molecules)
        assert released.max() <= S1.max_molecules


class TestTransmitTrain:
    def test_probabilities_normalized(self, small_model, frozen_surrogate):
        rng = np.random.default_rng(7)
        y = transmit_train(rng, small_model, frozen_surrogate,
                           rng.uniform(size=(10, 256)))
        assert np.abs(y.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_identity_stub_reduces_to_plain_classifier(self, small_model):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(6, 256))
        y_stub = transmit_train(None, small_model, IdentitySurrogate(), x)
        w = encode_batch(small_model, x)
        y_direct = small_model.decoder.forward(w)
        assert np.allclose(y_stub.data, y_direct.data, rtol=1e-12)

    def test_gradient_reaches_encoder_input_layer(self, small_model, frozen_surrogate):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(2, 256))
        z = one_hot(np.array([1, 3]), 4)
        b, k = 2, small_model.symbols
        frozen = FrozenDraws(np.zeros(b * k), rng.standard_normal(b * k))

        def loss_fn():
            y = transmit_train(frozen, small_model, frozen_surrogate, x)
            return nn.cross_entropy(y, z)

        for p in small_model.parameters():
            p.zero_grad()
        loss_fn().backward()
        grad = small_model.encoder.weights[0].grad
        assert grad is not None and np.abs(grad).max() > 0.0

        # finite-difference spot check on three first-layer coordinates
        w0 = small_model.encoder.weights[0]
        analytic = w0.grad.copy()
        h = 1e-6
        for idx in [(0, 0), (17, 3), (255, 15)]:
            orig = w0.data[idx]
            w0.data[idx] = orig + h
            up = float(loss_fn().data)
            w0.data[idx] = orig - h
            down = float(loss_fn().data)
            w0.data[idx] = orig
            numeric = (up - down) / (2 * h)
            assert numeric == pytest.approx(analytic[idx], rel=1e-3, abs=1e-10)


class TestEndToEndGradient:
    def test_full_graph_matches_finite_differences(self):
        # miniature stack so the exhaustive parameter sweep stays quick
        rng = np.random.default_rng(10)
        model = SemanticModel(
            encoder=DenseNet([6, 5, 4, 4, 4, 3], ["leaky_relu"] * 4 + ["identity"], rng=rng),
            quantizer=DenseNet([3, 4, 4, 3], ["leaky_relu"] * 2 + ["sigmoid"], rng=rng),
            decoder=DenseNet([3, 4, 4, 2], ["leaky_relu"] * 2 + ["softmax"], rng=rng),
            image_shape=(6, 1, 1),
            input_mean=np.zeros(6), input_std=np.ones(6),
        )
        surr = ChannelSurrogate(net=small_mdn_net(rng, hidden=5))
        x = rng.uniform(size=(2, 6))
        z = one_hot(np.array([0, 1]), 2)
        frozen = FrozenDraws(rng.integers(0, 2, size=6), rng.standard_normal(6))

        def loss_fn():
            y = transmit_train(frozen, model, surr, x)
            return nn.cross_entropy(y, z)

        assert gradient_check(loss_fn, model.parameters()) < 1e-3


class TestTransmitEval:
    def test_probabilities_and_determinism(self, small_model):
        w = encode_batch(small_model, np.random.default_rng(12).uniform(size=(5, 256))).data
        y1 = transmit_eval(np.random.default_rng(77), small_model, S1, w)
        y2 = transmit_eval(np.random.default_rng(77), small_model, S1, w)
        assert np.array_equal(y1, y2)
        assert np.abs(y1.sum(axis=1) - 1.0).max() < 1e-9


class TestTraining:
    def test_loss_decreases_and_history_reproducible(self, frozen_surrogate):
        train = make_dataset(np.random.default_rng(13), 320)
        cfg = replace(TRAIN_CONFIG, epochs=11, batch_size=64)

        def run():
            model, hist = train_end_to_end(np.random.default_rng(14), train,
                                           frozen_surrogate, cfg)
            return model, hist

        model_a, hist_a = run()
        _, hist_b = run()
        assert hist_a == hist_b
        assert hist_a["train_loss"][10] < hist_a["train_loss"][0]

    def test_same_bytes_at_any_cpu_count(self, monkeypatch, frozen_surrogate):
        # the surrogate's draw runs its second row block on a worker thread
        # from two CPUs on; its blocks are fixed, so the bytes are too
        train = make_dataset(np.random.default_rng(13), 200)
        cfg = replace(TRAIN_CONFIG, epochs=3, batch_size=48)
        runs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
            model, hist = train_end_to_end(np.random.default_rng(14), train,
                                           frozen_surrogate, cfg)
            runs.append(([p.data.tobytes() for p in model.parameters()], hist))
        assert runs[0] == runs[1] == runs[2]

    def test_surrogate_untouched_by_training(self, frozen_surrogate, tmp_path):
        # the draw reads the net's arrays, so no gradient reaches the net,
        # whether it comes from a fit or from a checkpoint
        frozen_surrogate.save(tmp_path / "surrogate.ckpt")
        loaded = ChannelSurrogate.load(tmp_path / "surrogate.ckpt")
        train = make_dataset(np.random.default_rng(15), 160)
        for surr in (frozen_surrogate, loaded):
            before = [t.data.copy() for t in surr.net.parameters()]
            train_end_to_end(np.random.default_rng(16), train, surr,
                             replace(TRAIN_CONFIG, epochs=3, batch_size=32))
            for a, t in zip(before, surr.net.parameters()):
                assert np.array_equal(a, t.data) and t.grad is None

    def test_label_permutation_leaves_accuracy_statistically_unchanged(self, frozen_surrogate):
        train = make_dataset(np.random.default_rng(17), 640)
        test = make_dataset(np.random.default_rng(18), 240)
        cfg = replace(TRAIN_CONFIG, epochs=15, batch_size=64)
        perm = np.array([2, 3, 0, 1])

        model_a, _ = train_end_to_end(np.random.default_rng(19), train,
                                      frozen_surrogate, cfg)
        acc_a, lo_a, hi_a = evaluate_accuracy(np.random.default_rng(20), model_a,
                                              S1, test, n_trials=2)

        permuted = type(train)(images=train.images, labels=perm[train.labels],
                               height=train.height, width=train.width,
                               channels=train.channels)
        permuted_test = type(test)(images=test.images, labels=perm[test.labels],
                                   height=test.height, width=test.width,
                                   channels=test.channels)
        model_b, _ = train_end_to_end(np.random.default_rng(19), permuted,
                                      frozen_surrogate, cfg)
        acc_b, lo_b, hi_b = evaluate_accuracy(np.random.default_rng(20), model_b,
                                              S1, permuted_test, n_trials=2)
        assert abs(acc_a - acc_b) < 0.1

    def test_returns_best_validation_weights(self):
        # through the noiseless identity channel the validation loss is a
        # function of the weights alone, so the returned model reproduces
        # the best epoch's reading; this run's loss climbs after epoch 10
        train = make_dataset(np.random.default_rng(50), 160)
        model, hist = train_end_to_end(np.random.default_rng(51), train, IdentitySurrogate(),
                                       replace(TRAIN_CONFIG, epochs=15, lr=0.1))
        kept = int(np.argmin(hist["val_loss"]))
        assert kept < len(hist["val_loss"]) - 1
        val_idx = np.random.default_rng(51).permutation(len(train))[:len(train) // 10]
        y = transmit_train(None, model, IdentitySurrogate(), train.images[val_idx])
        loss = nn.cross_entropy(y, one_hot(train.labels[val_idx], 4))
        assert float(loss.data) == hist["val_loss"][kept]

    def test_rejects_empty_dataset(self, frozen_surrogate):
        empty = make_dataset(np.random.default_rng(0), 4)
        empty = type(empty)(images=empty.images[:0], labels=empty.labels[:0])
        with pytest.raises(ValueError, match="empty"):
            train_end_to_end(np.random.default_rng(0), empty, frozen_surrogate)

    def test_train_eval_gap_within_ten_points(self, frozen_surrogate):
        train = make_dataset(np.random.default_rng(40), 640)
        test = make_dataset(np.random.default_rng(41), 320)
        model, _ = train_end_to_end(np.random.default_rng(42), train,
                                    frozen_surrogate, replace(TRAIN_CONFIG, epochs=12))
        # accuracy with the channel replaced by the surrogate sampler
        rng = np.random.default_rng(43)
        y_surr = transmit_train(rng, model, frozen_surrogate, test.images)
        acc_surr = float((y_surr.data.argmax(axis=1) == test.labels).mean())
        acc_real, _, _ = evaluate_accuracy(np.random.default_rng(44), model, S1,
                                           test, n_trials=2)
        assert abs(acc_surr - acc_real) <= 0.10


class TestEvaluateAccuracy:
    def _crafted_setup(self):
        """Four one-hot 'images', an identity-ish stack, perfect decoding."""
        k = 4
        eye = np.eye(k)
        zeros = np.zeros(k)
        encoder = DenseNet.from_arrays([eye] * 5, [zeros] * 5,
                                       ["leaky_relu"] * 4 + ["identity"])
        # sigmoid(12x - 6): ~0.0025 for absent, ~0.9975 for present features
        quantizer = DenseNet.from_arrays([eye, eye, 12.0 * eye],
                                         [zeros, zeros, -6.0 * np.ones(k)],
                                         ["leaky_relu", "leaky_relu", "sigmoid"])
        decoder = DenseNet.from_arrays([eye, eye, 40.0 * eye],
                                       [zeros, zeros, zeros],
                                       ["leaky_relu", "leaky_relu", "softmax"])
        model = SemanticModel(encoder=encoder, quantizer=quantizer, decoder=decoder,
                              image_shape=(k, 1, 1),
                              input_mean=np.zeros(k), input_std=np.ones(k))
        images = np.tile(eye, (25, 1))
        labels = np.tile(np.arange(k), 25)
        ds = make_dataset(np.random.default_rng(0), 4)
        return model, type(ds)(images=images, labels=labels, height=k, width=1,
                               channels=1)

    def test_perfect_decoder_on_clean_channel(self):
        model, ds = self._crafted_setup()
        clean = with_overrides(S1, noise_std=0.0, max_molecules=2_000_000,
                               memory=0)
        acc, lo, hi = evaluate_accuracy(np.random.default_rng(21), model, clean,
                                        ds, n_trials=2)
        assert acc == 1.0 and hi == 1.0

    def test_starvation_collapses_to_chance(self):
        model, ds = self._crafted_setup()
        starved = with_overrides(S1, max_molecules=1)
        acc, lo, hi = evaluate_accuracy(np.random.default_rng(22), model, starved,
                                        ds, n_trials=3)
        assert abs(acc - 0.25) < 0.12

    def test_trial_count_validated(self):
        model, ds = self._crafted_setup()
        with pytest.raises(ValueError):
            evaluate_accuracy(np.random.default_rng(0), model, S1, ds, n_trials=0)

    @pytest.mark.parametrize("n_m", [100, 4000])
    def test_draws_the_reference_stream(self, n_m):
        # the reference encodes the test set again in every trial; random
        # images put near-ties between symbols, so the count moves with the noise
        model, ds = self._crafted_setup()
        images = np.random.default_rng(45).uniform(size=(200, 4))
        test = type(ds)(images=images, labels=images.argmax(axis=1), height=4, width=1,
                        channels=1)
        for name in ("scenario1", "scenario2"):
            p = with_overrides(scenario(name), max_molecules=n_m)
            got = evaluate_accuracy(np.random.default_rng(46), model, p, test, n_trials=3)
            want = trial_accuracy(
                np.random.default_rng(46), test, 3,
                lambda rng: ref_transmit_eval(rng, model, p, test.images).argmax(axis=1))
            assert got == want

    @pytest.mark.parametrize("n_trials", [1, 3, 15])
    def test_encodes_the_test_set_once(self, monkeypatch, n_trials):
        model, ds = self._crafted_setup()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return encode_batch(*args, **kwargs)

        monkeypatch.setattr(transceiver, "encode_batch", counted)
        evaluate_accuracy(np.random.default_rng(47), model, S1, ds, n_trials=n_trials)
        assert len(calls) == 1


class TestConcurrentTrials:
    """Trials run in min(n_trials, CPUs) shares, one on the calling thread."""

    @staticmethod
    def _noisy_setup():
        # the crafted stack on random images: near-ties between symbols make
        # every trial's count move with its noise, so a lost or repeated
        # trial changes the tuple
        model, ds = TestEvaluateAccuracy()._crafted_setup()
        images = np.random.default_rng(45).uniform(size=(200, 4))
        return model, type(ds)(images=images, labels=images.argmax(axis=1), height=4,
                               width=1, channels=1)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 15])
    def test_same_tuple_at_any_cpu_count(self, monkeypatch, cpus, n_trials):
        model, test = self._noisy_setup()
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # interleave the trial threads finely
        try:
            for name in ("scenario1", "scenario2"):
                p = with_overrides(scenario(name), max_molecules=100)
                got = evaluate_accuracy(np.random.default_rng(48), model, p, test,
                                        n_trials=n_trials)
                want = serial_trial_accuracy(
                    np.random.default_rng(48), test, n_trials,
                    lambda rng: ref_transmit_eval(rng, model, p, test.images).argmax(axis=1))
                assert got == want
        finally:
            sys.setswitchinterval(switch)

    @staticmethod
    def _threads_of_trials(monkeypatch, cpus, n_trials, seed):
        """Evaluate with ``cpus`` usable CPUs; returns the calling thread's id,
        the number of shares handed to the worker helper and the thread id of
        each trial's prediction."""
        model, test = TestConcurrentTrials._noisy_setup()
        made, ran_on = [], []
        real_run = nn.run_concurrently
        real_predict = transceiver.transmit_eval

        def spy(tasks):
            made.append(len(tasks))
            return real_run(tasks)

        def predict(*args):
            ran_on.append(threading.get_ident())
            return real_predict(*args)

        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "run_concurrently", spy)
        monkeypatch.setattr(transceiver, "transmit_eval", predict)
        evaluate_accuracy(np.random.default_rng(seed), model, S1, test, n_trials=n_trials)
        return threading.get_ident(), made, ran_on

    @pytest.mark.parametrize("cpus, n_trials, pool_threads", [(2, 2, 1), (2, 15, 1),
                                                              (4, 3, 2), (4, 15, 3)])
    def test_pool_runs_all_shares_but_the_callers(self, monkeypatch, cpus, n_trials,
                                                  pool_threads):
        caller, made, ran_on = self._threads_of_trials(monkeypatch, cpus, n_trials, 50)
        assert made == [pool_threads + 1]
        first_share = len(np.array_split(np.arange(n_trials), pool_threads + 1)[0])
        assert ran_on.count(caller) == first_share and len(ran_on) == n_trials

    @pytest.mark.parametrize("cpus, n_trials", [(4, 1), (1, 15)])
    def test_one_trial_or_one_cpu_starts_no_thread(self, monkeypatch, cpus, n_trials):
        def no_pool():
            raise AssertionError("the worker pool was used")

        monkeypatch.setattr(nn, "_shared_pool", no_pool)
        caller, _, ran_on = self._threads_of_trials(monkeypatch, cpus, n_trials, 51)
        assert ran_on == [caller] * n_trials

    # trial ``bad`` of 4 fails: on the calling thread (its share holds trial 0)
    # or on a pool thread
    @pytest.mark.parametrize("cpus, bad", [(1, 2), (2, 0), (2, 3), (4, 0), (4, 3)])
    def test_error_in_one_trial_reaches_the_caller(self, monkeypatch, cpus, bad):
        _, test = self._noisy_setup()
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        seeds = np.random.default_rng(52).integers(0, 2 ** 63 - 1, size=4)

        def predict(trial_rng):
            if trial_rng.bit_generator.seed_seq.entropy == seeds[bad]:
                raise FloatingPointError(f"trial {bad} failed")
            return test.labels

        raised = []

        def call():
            try:
                trial_accuracy(np.random.default_rng(52), test, 4, predict)
            except FloatingPointError as err:
                raised.append(str(err))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == [f"trial {bad} failed"]


class TestWilson:
    def test_known_interval(self):
        lo, hi = wilson_interval(85, 100)
        assert lo == pytest.approx(0.7676, abs=2e-3)
        assert hi == pytest.approx(0.9063, abs=2e-3)

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, small_model):
        mean, std = standardization_stats(np.random.default_rng(23).uniform(size=(30, 256)))
        model = build_semantic_model(np.random.default_rng(24), (16, 16, 1), 4,
                                     input_mean=mean, input_std=std)
        path = tmp_path / "semantic.ckpt"
        model.save(path)
        back = SemanticModel.load(path)
        assert back.symbols == 16 and back.num_classes == 4
        assert np.array_equal(back.input_mean, mean)
        for a, b in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_widths_come_from_the_nets(self):
        model = unstandardized_model(np.random.default_rng(25), num_classes=3)
        assert (model.symbols, model.num_classes) == (transceiver.SYMBOLS, 3)
        assert model.encoder.dims[-1] == model.quantizer.dims[-1] == transceiver.SYMBOLS
        model.decoder = DenseNet([transceiver.SYMBOLS, 5], ["softmax"], np.random.default_rng(26))
        assert model.num_classes == 5
        with pytest.raises(TypeError):
            SemanticModel(encoder=model.encoder, quantizer=model.quantizer,
                          decoder=model.decoder, symbols=5, num_classes=3,
                          image_shape=(16, 16, 1))

    def test_role_checked(self, tmp_path, frozen_surrogate):
        path = tmp_path / "surrogate.ckpt"
        frozen_surrogate.save(path)
        with pytest.raises(nn.CheckpointError, match="role"):
            SemanticModel.load(path)
