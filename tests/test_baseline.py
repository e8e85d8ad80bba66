"""Separate source/channel coding pipeline: codec, block codes, OOK, accuracy."""

import itertools

import numpy as np
import pytest

import helpers as ref
from mclink import baseline, nn
from mclink.baseline import (
    CodecConfig,
    baseline_evaluate,
    channel_decode,
    channel_encode,
    clean_reconstructions,
    ook_transmit,
    source_bit_count,
    source_decode,
    source_encode,
    train_baseline_classifier,
    transmit_images,
)
from mclink.channel import observe_frames, scenario, with_overrides
from mclink.dataset import make_dataset
from mclink.transceiver import (
    evaluate_accuracy,
    trial_accuracy,
    wilson_interval,
)

S1 = scenario("scenario1")
# a budget at which the OOK link makes bit errors: the baseline reads 0.59-0.64
# there against 0.755 error-free, so its accuracy depends on the channel draws
NOISY_BUDGET = 1500


# -- the per-image codec the batched one replaced, kept as the reference ----

DS, BPP = 4, 1      # the codec's block side and bits per block
_H = np.array([[1, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 0, 0, 1]],
              dtype=np.uint8)
_G = np.hstack([np.eye(4, dtype=np.uint8), _H[:, :4].T])
_SYNDROME_TO_POS = {int(_H[0, j] + 2 * _H[1, j] + 4 * _H[2, j]): j for j in range(7)}


def ref_source_encode(image):
    h, w = 16, 16
    img = np.asarray(image, dtype=float).reshape(h, w)
    small = img.reshape(h // DS, DS, w // DS, DS).mean(axis=(1, 3))
    q = np.round(small * ((1 << BPP) - 1)).astype(np.int64).reshape(-1)
    bits = np.empty(q.size * BPP, dtype=np.uint8)
    for i in range(BPP):
        bits[i::BPP] = (q >> (BPP - 1 - i)) & 1
    return bits


def ref_source_decode(bits):
    h, w = 16, 16
    q = np.zeros((h // DS) * (w // DS), dtype=np.int64)
    for i in range(BPP):
        q = (q << 1) | bits[i::BPP]
    small = q / float((1 << BPP) - 1)
    return np.repeat(np.repeat(small.reshape(h // DS, w // DS), DS, axis=0), DS,
                     axis=1).reshape(-1)


def ref_channel_encode(bits):
    bits = np.concatenate([bits, np.zeros((-len(bits)) % 4, dtype=np.uint8)])
    return (bits.reshape(-1, 4) @ _G % 2).astype(np.uint8).reshape(-1)


def ref_channel_decode(bits):
    blocks = bits.reshape(-1, 7).copy()
    syndrome = blocks @ _H.T % 2
    syn_int = syndrome[:, 0] + 2 * syndrome[:, 1] + 4 * syndrome[:, 2]
    for row in np.nonzero(syn_int)[0]:
        blocks[row, _SYNDROME_TO_POS[int(syn_int[row])]] ^= 1
    return blocks[:, :4].reshape(-1)


def ref_transmit_images(rng, p, images):
    coded = np.stack([ref_channel_encode(ref_source_encode(img)) for img in images])
    detected = ook_transmit(rng, p, coded)
    n_source = source_bit_count()
    return np.stack([ref_source_decode(ref_channel_decode(row)[:n_source])
                     for row in detected])


# The ids keep the grid of block sides, bits per pixel and channel codes the
# codec once offered. The one codec has none of those settings, so each case
# now names the inputs it runs on: images constant over ds x ds blocks with
# levels on the bpp-bit grid, and the bit errors the named code corrected,
# put between channel_encode and channel_decode -- none, one flip in every
# 3-bit group (beyond what Hamming(7,4) corrects) or one in every 7-bit block.
CODEC_GRID = list(itertools.product((1, 2, 4, 8), (1, 3, 8),
                                    ("none", "repetition_3", "hamming_7_4")))


def grid_images(rng, ds, bpp, n=8):
    levels = rng.integers(0, 1 << bpp, size=(n, 16 // ds, 16 // ds)) / ((1 << bpp) - 1)
    return np.repeat(np.repeat(levels, ds, axis=1), ds, axis=2).reshape(n, 256)


def bit_errors(rng, code, shape):
    errors = np.zeros(shape, dtype=np.uint8)
    group = {"none": 0, "repetition_3": 3, "hamming_7_4": 7}[code]
    if group:
        whole = shape[1] // group * group
        hit = rng.integers(0, group, size=(shape[0], shape[1] // group))
        view = errors[:, :whole].reshape(shape[0], -1, group)
        np.put_along_axis(view, hit[..., None], 1, axis=2)
    return errors


class TestCodecConfig:
    # the codec has no settings: each one the config once validated is refused
    @pytest.mark.parametrize("bad", [
        dict(downsample_factor=0),
        dict(bits_per_pixel=0),
        dict(bits_per_pixel=9),
        dict(channel_code="turbo"),
        dict(detection_threshold=-3.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(TypeError):
            CodecConfig(**bad)


class TestSourceCodec:
    def test_all_white_image_is_all_ones(self):
        bits = source_encode(np.ones((1, 256)))
        assert bits.shape == (1, 16) and np.all(bits == 1)

    def test_bit_count_arithmetic(self):
        assert source_bit_count() == 16
        assert source_bit_count((32, 16)) == 32
        assert source_encode(np.random.default_rng(0).uniform(size=(1, 256))).size == 16

    def test_roundtrip_error_within_half_step(self):
        # each reconstructed block lies within half a step of its block's mean
        img = np.random.default_rng(1).uniform(size=(1, 256))
        recon = source_decode(source_encode(img))
        means = img.reshape(4, 4, 4, 4).mean(axis=(1, 3))
        blocks = recon.reshape(4, 4, 4, 4)
        assert np.all(blocks == blocks[:, :1, :, :1])
        assert np.abs(blocks[:, 0, :, 0] - means).max() <= 0.5

    def test_downsample_averages_blocks(self):
        img = np.zeros((16, 16))
        img[:8, :8] = 1.0
        img[12:, 12:] = np.array([[1, 1, 1, 0]] * 4)    # mean 0.75 -> 1
        img[12:, :4] = np.array([[1, 0, 0, 0]] * 4)     # mean 0.25 -> 0
        recon = source_decode(source_encode(img.reshape(1, -1))).reshape(16, 16)
        want = np.zeros((16, 16))
        want[:8, :8] = want[12:, 12:] = 1.0
        assert np.array_equal(recon, want)
        # lossless on images that are already on the codec's grid
        assert np.array_equal(source_decode(source_encode(want.reshape(1, -1))),
                              want.reshape(1, -1))

    def test_lossless_at_8bit_on_8bit_grid(self):
        # 8-bit images (levels k/255) whose 4x4 blocks each hold level 0 or 255
        # come back exactly; any other block comes back as its rounded mean,
        # except at an exact tie (sum 2040), where the float mean may land
        # on either side
        rng = np.random.default_rng(2)
        levels = 255 * rng.integers(0, 2, size=(8, 4, 4))
        img = np.repeat(np.repeat(levels, 4, axis=1), 4, axis=2).reshape(8, 256) / 255.0
        assert np.array_equal(source_decode(source_encode(img)), img)
        levels = rng.integers(0, 256, size=(64, 256))
        sums = levels.reshape(64, 4, 4, 4, 4).sum(axis=(2, 4)).reshape(64, 16)
        bits = source_encode(levels / 255.0)
        off_tie = 2 * sums != 16 * 255
        assert off_tie.mean() > 0.9
        assert np.array_equal(bits[off_tie], (2 * sums > 16 * 255)[off_tie])

    def test_non_divisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            source_encode(np.zeros((1, 18 * 16)), (18, 16))
        with pytest.raises(ValueError, match="divisible"):
            source_decode(np.zeros((1, 16), dtype=np.uint8), (18, 16))
        with pytest.raises(ValueError, match="divisible"):
            source_bit_count((18, 16))

    def test_out_of_range_pixels_rejected(self):
        with pytest.raises(ValueError):
            source_encode(np.full((1, 256), 1.5))


class TestChannelCodes:
    def test_hamming_roundtrip(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(1, 32)).astype(np.uint8)
        coded = channel_encode(bits)
        assert coded.size == 56
        assert np.array_equal(channel_decode(coded), bits)

    def test_hamming_pads_to_block_multiple(self):
        coded = channel_encode(np.array([[1, 0, 1]], dtype=np.uint8))
        assert coded.size == 7
        assert np.array_equal(channel_decode(coded)[0, :3], [1, 0, 1])

    def test_hamming_corrects_every_single_error(self):
        for msg_bits in itertools.product((0, 1), repeat=4):
            msg = np.array([msg_bits], dtype=np.uint8)
            coded = channel_encode(msg)
            for pos in range(7):
                hit = coded.copy()
                hit[0, pos] ^= 1
                assert np.array_equal(channel_decode(hit), msg)

    def test_hamming_corrects_no_double_error(self):
        for msg_bits in itertools.product((0, 1), repeat=4):
            msg = np.array([msg_bits], dtype=np.uint8)
            coded = channel_encode(msg)
            for a, b in itertools.combinations(range(7), 2):
                hit = coded.copy()
                hit[0, a] ^= 1
                hit[0, b] ^= 1
                assert not np.array_equal(channel_decode(hit), msg)

    def test_hamming_length_checked(self):
        with pytest.raises(ValueError, match="multiple of 7"):
            channel_decode(np.zeros((1, 10), dtype=np.uint8))


class TestBatchCodec:
    @pytest.mark.parametrize("ds,bpp,code", CODEC_GRID,
                             ids=[f"ds{ds}-bpp{bpp}-{code}" for ds, bpp, code in CODEC_GRID])
    def test_batch_equals_per_image_reference(self, ds, bpp, code):
        rng = np.random.default_rng(40)
        images = np.vstack([make_dataset(rng, 12).images, rng.uniform(size=(4, 256)),
                            grid_images(rng, ds, bpp)])
        src = source_encode(images)
        assert np.array_equal(src, np.stack([ref_source_encode(im) for im in images]))
        coded = channel_encode(src)
        assert np.array_equal(coded, np.stack([ref_channel_encode(b) for b in src]))
        noisy = coded ^ (rng.uniform(size=coded.shape) < 0.1).astype(np.uint8)
        decoded = channel_decode(noisy)
        assert np.array_equal(decoded, np.stack([ref_channel_decode(b) for b in noisy]))
        hit = coded ^ bit_errors(rng, code, coded.shape)
        assert np.array_equal(channel_decode(hit), np.stack([ref_channel_decode(b) for b in hit]))
        # at most one error per block is always corrected; one per 3-bit group is not
        corrected = np.array_equal(channel_decode(hit)[:, :src.shape[1]], src)
        assert corrected == (code != "repetition_3")
        recon = source_decode(decoded[:, :src.shape[1]])
        assert np.array_equal(recon, np.stack([ref_source_decode(b[:src.shape[1]])
                                               for b in decoded]))
        assert np.array_equal(clean_reconstructions(images),
                              np.stack([ref_source_decode(ref_source_encode(im))
                                        for im in images]))
        if ds % DS == 0:
            # whole codec blocks of one level come back rounded to a bit, so
            # losslessly when the levels are already bits
            on_grid = images[-8:]
            assert np.array_equal(clean_reconstructions(on_grid), np.round(on_grid))
        # a batch of one codes as that row of the batch
        assert np.array_equal(source_encode(images[:1]), src[:1])
        assert np.array_equal(channel_encode(src[:1]), coded[:1])
        assert np.array_equal(channel_decode(noisy[:1]), decoded[:1])
        assert np.array_equal(source_decode(src[:1]), clean_reconstructions(images[:1]))

    def test_hamming_corrects_every_single_error_in_every_block(self):
        msgs = np.random.default_rng(41).integers(0, 2, size=(16, 32)).astype(np.uint8)
        coded = channel_encode(msgs)
        assert coded.shape == (16, 56)
        for pos in range(7):
            hit = coded.copy()
            hit[:, pos::7] ^= 1
            assert np.array_equal(channel_decode(hit), msgs)
        mixed = coded.copy().reshape(16, 8, 7)
        pos = np.random.default_rng(42).integers(0, 7, size=(16, 8))
        np.put_along_axis(mixed, pos[..., None], 1 - np.take_along_axis(mixed, pos[..., None],
                                                                         axis=2), axis=2)
        assert np.array_equal(channel_decode(mixed.reshape(16, 56)), msgs)

    def test_one_bad_pixel_in_a_batch_rejected(self):
        images = np.full((5, 256), 0.5)
        images[3, 17] = 1.01
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            source_encode(images)

    def test_batch_length_checks(self):
        with pytest.raises(ValueError, match="divisible"):
            source_encode(np.zeros((4, 18 * 16)), (18, 16))
        with pytest.raises(ValueError, match="multiple of 7"):
            channel_decode(np.zeros((4, 10), dtype=np.uint8))

    @pytest.mark.parametrize("n_m", [100, 4000])
    def test_transmit_images_draws_the_reference_stream(self, n_m):
        p = with_overrides(S1, max_molecules=n_m)
        images = make_dataset(np.random.default_rng(43), 50).images
        coded = channel_encode(source_encode(images))
        got = transmit_images(np.random.default_rng(44), p, coded)
        want = ref_transmit_images(np.random.default_rng(44), p, images)
        assert np.array_equal(got, want)


class TestOok:
    def test_auto_threshold_is_half_signal_mean(self):
        # detecting at 0.5 on the normalized symbol takes the decisions of the
        # count threshold at half the signal mean: draw for draw, and on the
        # doubles next to 0.5
        edge = np.array([[np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]])
        bits = np.random.default_rng(9).integers(0, 2, size=(200, 28)).astype(np.uint8)
        for name, n_m in itertools.product(("scenario1", "scenario2"), (1, 100, 1500, 20_000)):
            p = with_overrides(scenario(name), max_molecules=n_m)
            assert np.array_equal(ref.ook_count_decisions(edge, p), [[0, 1, 1]])
            w_rx = observe_frames(np.random.default_rng(10), p, bits)
            assert np.array_equal(ook_transmit(np.random.default_rng(10), p, bits),
                                  ref.ook_count_decisions(w_rx, p))

    def test_clean_channel_is_error_free(self):
        quiet = with_overrides(S1, noise_std=0.0, memory=0)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(1, 10_000)).astype(np.uint8)
        detected = ook_transmit(rng, quiet, bits)
        ber = float(np.mean(detected != bits))
        assert ber < 1e-3      # 9-sigma margin at full budget: expect exactly 0

    def test_all_silent_detects_zero(self):
        quiet = with_overrides(S1, noise_std=0.0)
        detected = ook_transmit(np.random.default_rng(6), quiet,
                                np.zeros((1, 500), dtype=np.uint8))
        assert np.all(detected == 0)

    def test_starved_budget_is_coin_flip(self):
        starved = with_overrides(S1, max_molecules=1)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(1, 4000)).astype(np.uint8)
        detected = ook_transmit(rng, starved, bits)
        ber = float(np.mean(detected != bits))
        assert abs(ber - 0.5) < 0.1

    def test_batched_streams(self):
        rng = np.random.default_rng(8)
        frames = rng.integers(0, 2, size=(5, 28)).astype(np.uint8)
        out = ook_transmit(rng, S1, frames)
        assert out.shape == (5, 28) and set(np.unique(out)) <= {0, 1}


@pytest.fixture(scope="module")
def toy_sets():
    train = make_dataset(np.random.default_rng(30), 1600)
    test = make_dataset(np.random.default_rng(31), 400)
    return train, test


@pytest.fixture(scope="module")
def classifier(toy_sets):
    train, _ = toy_sets
    return train_baseline_classifier(np.random.default_rng(32), CodecConfig(), train)


class TestPipeline:
    def test_error_free_channel_matches_clean_accuracy(self, toy_sets, classifier):
        _, test = toy_sets
        cfg = CodecConfig()
        recon = clean_reconstructions(test.images)
        clean_acc = float((classifier.predict_proba(recon).argmax(axis=1)
                           == test.labels).mean())
        quiet = with_overrides(S1, noise_std=0.0)   # 9-sigma detection margin
        acc, lo, hi = baseline_evaluate(np.random.default_rng(33), cfg, quiet,
                                        test, classifier, n_trials=1)
        assert acc == pytest.approx(clean_acc, abs=1e-12)

    def test_starvation_collapses_to_chance(self, toy_sets, classifier):
        _, test = toy_sets
        starved = with_overrides(S1, max_molecules=50)
        acc, lo, hi = baseline_evaluate(np.random.default_rng(34), CodecConfig(),
                                        starved, test, classifier, n_trials=2)
        assert abs(acc - 0.25) < 0.1

    def test_transmitted_reconstructions_binary_at_1bpp(self, toy_sets):
        _, test = toy_sets
        coded = channel_encode(source_encode(test.images[:8]))
        recon = transmit_images(np.random.default_rng(35), S1, coded)
        assert set(np.unique(recon)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n_m", [100, NOISY_BUDGET, 4000])
    def test_evaluate_draws_the_reference_stream(self, toy_sets, classifier, n_m):
        # the reference codes the test set again in every trial
        _, test = toy_sets
        cfg = CodecConfig()
        for name in ("scenario1", "scenario2"):
            p = with_overrides(scenario(name), max_molecules=n_m)
            got = baseline_evaluate(np.random.default_rng(37), cfg, p, test, classifier,
                                    n_trials=3)
            want = trial_accuracy(
                np.random.default_rng(37), test, 3,
                lambda rng: classifier.predict_proba(
                    ref_transmit_images(rng, p, test.images)).argmax(axis=1))
            assert got == want
            if n_m == NOISY_BUDGET:
                # the link makes errors here, so the tuple depends on the stream;
                # were it seed-blind, this case would pin nothing
                other = baseline_evaluate(np.random.default_rng(38), cfg, p, test, classifier,
                                          n_trials=3)
                assert other != got

    def test_empty_test_set_rejected_as_by_the_semantic_evaluator(self, toy_sets, classifier):
        _, test = toy_sets
        empty = type(test)(images=test.images[:0], labels=test.labels[:0])
        model = ref.unstandardized_model(np.random.default_rng(39))
        with pytest.raises(ValueError) as semantic:
            evaluate_accuracy(np.random.default_rng(40), model, S1, empty)
        with pytest.raises(ValueError) as coded:
            baseline_evaluate(np.random.default_rng(40), CodecConfig(), S1, empty, classifier)
        assert str(coded.value) == str(semantic.value) == "test set is empty"

    @pytest.mark.parametrize("n_trials", [1, 3, 15])
    def test_codes_the_test_set_once(self, toy_sets, classifier, monkeypatch, n_trials):
        _, test = toy_sets
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return source_encode(*args, **kwargs)

        monkeypatch.setattr(baseline, "source_encode", counted)
        baseline_evaluate(np.random.default_rng(38), CodecConfig(), S1, test, classifier,
                          n_trials=n_trials)
        assert len(calls) == 1

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 15])
    def test_same_tuple_at_any_cpu_count(self, toy_sets, classifier, monkeypatch,
                                         cpus, n_trials):
        # trials run in min(n_trials, CPUs) shares; the reference runs them
        # one after another on the calling thread
        _, test = toy_sets
        cfg = CodecConfig()
        coded = channel_encode(source_encode(test.images))
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        for name in ("scenario1", "scenario2"):
            p = with_overrides(scenario(name), max_molecules=NOISY_BUDGET)
            got = baseline_evaluate(np.random.default_rng(41), cfg, p, test, classifier,
                                    n_trials=n_trials)
            seeds = np.random.default_rng(41).integers(0, 2 ** 63 - 1, size=n_trials)
            correct = sum(int((classifier.predict_proba(
                transmit_images(np.random.default_rng(int(seed)), p, coded)
            ).argmax(axis=1) == test.labels).sum()) for seed in seeds)
            total = n_trials * len(test)
            assert got == (correct / total, *wilson_interval(correct, total))
