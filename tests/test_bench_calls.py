"""The calls ``bench/workloads.py`` makes into the package still work.

The benchmark calls some library functions directly, not through the CLI,
and reads attributes of what they return. Each such call is made here at a
tiny size, with the arguments the benchmark passes, so a signature change
fails tier-1 instead of a benchmark run.
"""

import dataclasses

import numpy as np

from mclink import baseline, channel, dataset, particle, surrogate

S1 = channel.scenario("scenario1")


def test_baseline_entry_points_take_a_codec_config():
    train = dataset.make_dataset(np.random.default_rng(0), 16)
    test = dataset.make_dataset(np.random.default_rng(1), 12)
    classifier = baseline.train_baseline_classifier(
        np.random.default_rng(2), baseline.CodecConfig(), train)
    part = dataclasses.replace(test, images=test.images[:8], labels=test.labels[:8])
    p = channel.with_overrides(S1, max_molecules=4000)
    acc, lo, hi = baseline.baseline_evaluate(np.random.default_rng(3), baseline.CodecConfig(), p,
                                             part, classifier, n_trials=1)
    assert 0.0 <= lo <= acc <= hi <= 1.0
    assert np.array([(acc, lo, hi)]).shape == (1, 3)


def test_scalar_slot_draw_has_a_count():
    quiet = channel.with_overrides(S1, noise_std=0.0, memory=0)
    counts = [channel.observe_slot(np.random.default_rng(4), quiet, 1.0, [], 1.0).count
              for _ in range(3)]
    assert all(isinstance(c, float) and c > 0.0 for c in counts)


def test_mixture_head_exposes_its_parameters():
    net = surrogate.build_mdn_net(np.random.default_rng(5))
    contexts, targets = surrogate.generate_pairs(np.random.default_rng(6), S1, 10)
    mix = surrogate.mdn_forward(net, contexts)
    assert mix.pi.shape == mix.mu.shape == mix.sigma2.shape == (10, surrogate.COMPONENTS)
    assert targets.shape == (10,)


def test_oracle_and_sir_calls():
    cfg = particle.default_sim_config("scenario1", n_particles=1000, seed=7)
    curve = particle.empirical_capture_curve(cfg, S1)
    assert len(curve) == len(set(cfg.record_times))
    assert dataclasses.replace(cfg, n_particles=2000).n_particles == 2000
    trace = channel.sir_trace(channel.scenario("scenario2"), [1.0] * 5, 0.01)
    assert trace.shape == (5 * 300, 2)
