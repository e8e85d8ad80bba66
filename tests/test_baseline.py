"""Separate source/channel coding pipeline: codec, block codes, OOK, accuracy."""

import itertools

import numpy as np
import pytest

from mclink.baseline import (
    CodecConfig,
    baseline_evaluate,
    channel_decode,
    channel_encode,
    clean_reconstructions,
    coded_bit_count,
    detection_threshold,
    ook_transmit,
    source_bit_count,
    source_decode,
    source_encode,
    train_baseline_classifier,
    transmit_images,
    BaselineClassifier,
)
from mclink.channel import capture_probability, scenario, with_overrides
from mclink.dataset import make_dataset
from mclink.transceiver import trial_accuracy

S1 = scenario("scenario1")


# -- the per-image codec the batched one replaced, kept as the reference ----

_H = np.array([[1, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 0, 0, 1]],
              dtype=np.uint8)
_G = np.hstack([np.eye(4, dtype=np.uint8), _H[:, :4].T])
_SYNDROME_TO_POS = {int(_H[0, j] + 2 * _H[1, j] + 4 * _H[2, j]): j for j in range(7)}


def ref_source_encode(cfg, image):
    h, w = 16, 16
    img = np.asarray(image, dtype=float).reshape(h, w)
    ds = cfg.downsample_factor
    small = img.reshape(h // ds, ds, w // ds, ds).mean(axis=(1, 3))
    q = np.round(small * ((1 << cfg.bits_per_pixel) - 1)).astype(np.int64).reshape(-1)
    bits = np.empty(q.size * cfg.bits_per_pixel, dtype=np.uint8)
    for i in range(cfg.bits_per_pixel):
        bits[i::cfg.bits_per_pixel] = (q >> (cfg.bits_per_pixel - 1 - i)) & 1
    return bits


def ref_source_decode(cfg, bits):
    h, w = 16, 16
    ds, bpp = cfg.downsample_factor, cfg.bits_per_pixel
    q = np.zeros((h // ds) * (w // ds), dtype=np.int64)
    for i in range(bpp):
        q = (q << 1) | bits[i::bpp]
    small = q / float((1 << bpp) - 1)
    return np.repeat(np.repeat(small.reshape(h // ds, w // ds), ds, axis=0), ds,
                     axis=1).reshape(-1)


def ref_channel_encode(cfg, bits):
    if cfg.channel_code == "none":
        return bits.copy()
    if cfg.channel_code == "repetition_3":
        return np.repeat(bits, 3)
    bits = np.concatenate([bits, np.zeros((-len(bits)) % 4, dtype=np.uint8)])
    return (bits.reshape(-1, 4) @ _G % 2).astype(np.uint8).reshape(-1)


def ref_channel_decode(cfg, bits):
    if cfg.channel_code == "none":
        return bits.copy()
    if cfg.channel_code == "repetition_3":
        return (bits.reshape(-1, 3).sum(axis=1) >= 2).astype(np.uint8)
    blocks = bits.reshape(-1, 7).copy()
    syndrome = blocks @ _H.T % 2
    syn_int = syndrome[:, 0] + 2 * syndrome[:, 1] + 4 * syndrome[:, 2]
    for row in np.nonzero(syn_int)[0]:
        blocks[row, _SYNDROME_TO_POS[int(syn_int[row])]] ^= 1
    return blocks[:, :4].reshape(-1)


def ref_transmit_images(rng, cfg, p, images):
    coded = np.stack([ref_channel_encode(cfg, ref_source_encode(cfg, img)) for img in images])
    detected = ook_transmit(rng, p, coded, cfg)
    n_source = source_bit_count(cfg)
    return np.stack([ref_source_decode(cfg, ref_channel_decode(cfg, row)[:n_source])
                     for row in detected])


CODECS = [CodecConfig(downsample_factor=ds, bits_per_pixel=bpp, channel_code=code)
          for ds, bpp, code in itertools.product(
              (1, 2, 4, 8), (1, 3, 8), ("none", "repetition_3", "hamming_7_4"))]


class TestCodecConfig:
    @pytest.mark.parametrize("bad", [
        dict(downsample_factor=0),
        dict(bits_per_pixel=0),
        dict(bits_per_pixel=9),
        dict(channel_code="turbo"),
        dict(detection_threshold=-3.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            CodecConfig(**bad)


class TestSourceCodec:
    def test_all_white_image_is_all_ones(self):
        cfg = CodecConfig(downsample_factor=1, bits_per_pixel=1, channel_code="none")
        bits = source_encode(cfg, np.ones(256))
        assert bits.shape == (256,) and np.all(bits == 1)

    def test_bit_count_arithmetic(self):
        cfg = CodecConfig(downsample_factor=2, bits_per_pixel=2, channel_code="none")
        assert source_bit_count(cfg) == 128
        assert source_encode(cfg, np.random.default_rng(0).uniform(size=256)).size == 128

    def test_roundtrip_error_within_half_step(self):
        cfg = CodecConfig(downsample_factor=1, bits_per_pixel=3, channel_code="none")
        img = np.random.default_rng(1).uniform(size=256)
        recon = source_decode(cfg, source_encode(cfg, img))
        assert np.abs(recon - img).max() <= 0.5 / (2 ** 3 - 1) + 1e-12

    def test_lossless_at_8bit_on_8bit_grid(self):
        cfg = CodecConfig(downsample_factor=1, bits_per_pixel=8, channel_code="none")
        img = np.random.default_rng(2).integers(0, 256, size=256) / 255.0
        recon = source_decode(cfg, source_encode(cfg, img))
        assert np.array_equal(recon, img)

    def test_downsample_averages_blocks(self):
        cfg = CodecConfig(downsample_factor=8, bits_per_pixel=8, channel_code="none")
        img = np.zeros((16, 16))
        img[:8, :8] = 1.0
        recon = source_decode(cfg, source_encode(cfg, img.reshape(-1))).reshape(16, 16)
        assert np.allclose(recon[:8, :8], 1.0, atol=1 / 255)
        assert np.allclose(recon[8:, 8:], 0.0, atol=1 / 255)

    def test_non_divisible_dims_rejected(self):
        cfg = CodecConfig(downsample_factor=3)
        with pytest.raises(ValueError, match="divisible"):
            source_encode(cfg, np.zeros(256))

    def test_out_of_range_pixels_rejected(self):
        cfg = CodecConfig()
        with pytest.raises(ValueError):
            source_encode(cfg, np.full(256, 1.5))


class TestChannelCodes:
    def test_identity_code(self):
        cfg = CodecConfig(channel_code="none")
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(channel_decode(cfg, channel_encode(cfg, bits)), bits)

    def test_repetition_roundtrip_and_single_flip(self):
        cfg = CodecConfig(channel_code="repetition_3")
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=40).astype(np.uint8)
        coded = channel_encode(cfg, bits)
        assert coded.size == 120
        assert np.array_equal(channel_decode(cfg, coded), bits)
        # one flipped replica per triple still decodes cleanly
        corrupted = coded.copy()
        for i in range(40):
            corrupted[3 * i + rng.integers(0, 3)] ^= 1
        assert np.array_equal(channel_decode(cfg, corrupted), bits)

    def test_repetition_length_checked(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            channel_decode(CodecConfig(channel_code="repetition_3"),
                           np.zeros(7, dtype=np.uint8))

    def test_hamming_roundtrip(self):
        cfg = CodecConfig(channel_code="hamming_7_4")
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=32).astype(np.uint8)
        coded = channel_encode(cfg, bits)
        assert coded.size == 56
        assert np.array_equal(channel_decode(cfg, coded), bits)

    def test_hamming_pads_to_block_multiple(self):
        cfg = CodecConfig(channel_code="hamming_7_4")
        coded = channel_encode(cfg, np.array([1, 0, 1], dtype=np.uint8))
        assert coded.size == 7
        assert np.array_equal(channel_decode(cfg, coded)[:3], [1, 0, 1])

    def test_hamming_corrects_every_single_error(self):
        cfg = CodecConfig(channel_code="hamming_7_4")
        for msg_bits in itertools.product((0, 1), repeat=4):
            msg = np.array(msg_bits, dtype=np.uint8)
            coded = channel_encode(cfg, msg)
            for pos in range(7):
                hit = coded.copy()
                hit[pos] ^= 1
                assert np.array_equal(channel_decode(cfg, hit), msg)

    def test_hamming_corrects_no_double_error(self):
        cfg = CodecConfig(channel_code="hamming_7_4")
        for msg_bits in itertools.product((0, 1), repeat=4):
            msg = np.array(msg_bits, dtype=np.uint8)
            coded = channel_encode(cfg, msg)
            for a, b in itertools.combinations(range(7), 2):
                hit = coded.copy()
                hit[a] ^= 1
                hit[b] ^= 1
                assert not np.array_equal(channel_decode(cfg, hit), msg)

    def test_hamming_length_checked(self):
        with pytest.raises(ValueError, match="multiple of 7"):
            channel_decode(CodecConfig(channel_code="hamming_7_4"),
                           np.zeros(10, dtype=np.uint8))

    def test_coded_bit_count(self):
        assert coded_bit_count(CodecConfig(channel_code="hamming_7_4"), 16) == 28
        assert coded_bit_count(CodecConfig(channel_code="repetition_3"), 16) == 48
        assert coded_bit_count(CodecConfig(channel_code="none"), 16) == 16


class TestBatchCodec:
    @pytest.mark.parametrize("cfg", CODECS, ids=lambda c: (
        f"ds{c.downsample_factor}-bpp{c.bits_per_pixel}-{c.channel_code}"))
    def test_batch_equals_per_image_reference(self, cfg):
        rng = np.random.default_rng(40)
        images = np.vstack([make_dataset(rng, 12).images, rng.uniform(size=(4, 256))])
        src = source_encode(cfg, images)
        assert np.array_equal(src, np.stack([ref_source_encode(cfg, im) for im in images]))
        coded = channel_encode(cfg, src)
        assert np.array_equal(coded, np.stack([ref_channel_encode(cfg, b) for b in src]))
        noisy = coded ^ (rng.uniform(size=coded.shape) < 0.1).astype(np.uint8)
        decoded = channel_decode(cfg, noisy)
        assert np.array_equal(decoded, np.stack([ref_channel_decode(cfg, b) for b in noisy]))
        recon = source_decode(cfg, decoded[:, :src.shape[1]])
        assert np.array_equal(recon, np.stack([ref_source_decode(cfg, b[:src.shape[1]])
                                               for b in decoded]))
        assert np.array_equal(clean_reconstructions(cfg, images),
                              np.stack([ref_source_decode(cfg, ref_source_encode(cfg, im))
                                        for im in images]))
        # one image or bitstream in, one out
        assert source_encode(cfg, images[0]).shape == src[0].shape
        assert channel_encode(cfg, src[0]).shape == coded[0].shape
        assert channel_decode(cfg, noisy[0]).shape == decoded[0].shape
        assert source_decode(cfg, src[0]).shape == (256,)

    def test_hamming_corrects_every_single_error_in_every_block(self):
        cfg = CodecConfig(channel_code="hamming_7_4")
        msgs = np.random.default_rng(41).integers(0, 2, size=(16, 32)).astype(np.uint8)
        coded = channel_encode(cfg, msgs)
        assert coded.shape == (16, 56)
        for pos in range(7):
            hit = coded.copy()
            hit[:, pos::7] ^= 1
            assert np.array_equal(channel_decode(cfg, hit), msgs)
        mixed = coded.copy().reshape(16, 8, 7)
        pos = np.random.default_rng(42).integers(0, 7, size=(16, 8))
        np.put_along_axis(mixed, pos[..., None], 1 - np.take_along_axis(mixed, pos[..., None],
                                                                         axis=2), axis=2)
        assert np.array_equal(channel_decode(cfg, mixed.reshape(16, 56)), msgs)

    def test_one_bad_pixel_in_a_batch_rejected(self):
        images = np.full((5, 256), 0.5)
        images[3, 17] = 1.01
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            source_encode(CodecConfig(), images)

    def test_batch_length_checks(self):
        with pytest.raises(ValueError, match="divisible"):
            source_encode(CodecConfig(downsample_factor=3), np.zeros((4, 256)))
        with pytest.raises(ValueError, match="multiple of 3"):
            channel_decode(CodecConfig(channel_code="repetition_3"),
                           np.zeros((4, 7), dtype=np.uint8))
        with pytest.raises(ValueError, match="multiple of 7"):
            channel_decode(CodecConfig(channel_code="hamming_7_4"),
                           np.zeros((4, 10), dtype=np.uint8))

    @pytest.mark.parametrize("n_m", [100, 4000])
    def test_transmit_images_draws_the_reference_stream(self, n_m):
        p = with_overrides(S1, max_molecules=n_m)
        images = make_dataset(np.random.default_rng(43), 50).images
        for cfg in (CodecConfig(), CodecConfig(downsample_factor=2, bits_per_pixel=3,
                                               channel_code="repetition_3")):
            got = transmit_images(np.random.default_rng(44), cfg, p, images)
            want = ref_transmit_images(np.random.default_rng(44), cfg, p, images)
            assert np.array_equal(got, want)


class TestOok:
    def test_auto_threshold_is_half_signal_mean(self):
        cfg = CodecConfig()
        t = S1.observation_time()
        expected = S1.max_molecules * capture_probability(S1, t) / 2
        assert detection_threshold(cfg, S1) == pytest.approx(expected, rel=1e-12)
        assert detection_threshold(CodecConfig(detection_threshold=42.0), S1) == 42.0

    def test_clean_channel_is_error_free(self):
        quiet = with_overrides(S1, noise_std=0.0, memory=0)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=10_000).astype(np.uint8)
        detected = ook_transmit(rng, quiet, bits)
        ber = float(np.mean(detected != bits))
        assert ber < 1e-3      # 9-sigma margin at full budget: expect exactly 0

    def test_all_silent_detects_zero(self):
        quiet = with_overrides(S1, noise_std=0.0)
        detected = ook_transmit(np.random.default_rng(6), quiet,
                                np.zeros(500, dtype=np.uint8))
        assert np.all(detected == 0)

    def test_starved_budget_is_coin_flip(self):
        starved = with_overrides(S1, max_molecules=1)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=4000).astype(np.uint8)
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
        recon = clean_reconstructions(cfg, test.images)
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
        recon = transmit_images(np.random.default_rng(35), CodecConfig(), S1,
                                test.images[:8])
        assert set(np.unique(recon)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n_m", [100, 4000])
    def test_evaluate_draws_the_reference_stream(self, toy_sets, classifier, n_m):
        _, test = toy_sets
        cfg, p = CodecConfig(), with_overrides(S1, max_molecules=n_m)
        got = baseline_evaluate(np.random.default_rng(37), cfg, p, test, classifier,
                                n_trials=2)
        want = trial_accuracy(
            np.random.default_rng(37), test, 2,
            lambda rng, images: classifier.predict_proba(
                ref_transmit_images(rng, cfg, p, images)).argmax(axis=1))
        assert got == want

    def test_classifier_checkpoint_roundtrip(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        classifier.save(path)
        back = BaselineClassifier.load(path)
        assert back.codec == classifier.codec
        x = np.random.default_rng(36).uniform(size=(4, 256))
        assert np.array_equal(back.predict_proba(x), classifier.predict_proba(x))
