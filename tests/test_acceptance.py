"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream
them). The heavyweight fixtures -- the 4000/1000 dataset, the full-size
channel surrogate, and the per-budget model sweep -- are session-scoped
and shared.

Criterion 1 note: the capture formula is a point-concentration
approximation; at t = 0.5 s the molecule cloud's spread (28.3 um) is
comparable to the receiver radius (20 um) and the exact sphere-averaged
presence probability sits 19.6% above the formula (noncentral-chi-square
closed form, confirmed by direct Monte Carlo). At 100k particles a correct
simulator reads 19.6% +- 6.5 points (one standard error) above the formula
at that probe, so the 15% gate fails at the expected reading and at seed 0
(17.3%), and passes by noise at about 1 seed in 4. The criterion is
asserted as stated rather than loosened, and the probe is reported with
its measured deviation.

Criterion 2 draws its counts through the shipped sampler,
``observe_frames``, on one-slot frames of a link whose 1 s slot puts the
observation instant at the criterion's t = 1 s.
"""

import math
import time

import numpy as np
import pytest

import helpers as ref
from helpers import FrozenDraws, gradient_check, small_mdn_net
from mclink import nn
from mclink.channel import (
    capture_probability,
    count_moments,
    observe_frames,
    peak_time,
    scenario,
    sir_trace,
    with_overrides,
)
from mclink.cli import EXIT_OK, main as cli_main, sweep
from mclink.dataset import make_dataset, one_hot
from mclink.nn import DenseNet, Tensor
from mclink.particle import ParticleSimConfig, empirical_capture_curve
from mclink.runio import derive_rng
from mclink.surrogate import (
    ChannelSurrogate,
    FIT_CONFIG,
    fit_channel,
    generate_pairs,
    mdn_nll,
    single_gaussian_nll,
)
from mclink.transceiver import (
    SemanticModel,
    transmit_train,
)

S1 = scenario("scenario1")
S2 = scenario("scenario2")

SWEEP_BUDGETS = (100, 300, 600, 800, 1000, 1200, 1500, 2000, 4000, 20000)
CHANCE = 0.25


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def toy_data():
    train = make_dataset(derive_rng(0, "acceptance", "train"), 4000)
    test = make_dataset(derive_rng(0, "acceptance", "test"), 1000)
    return train, test


@pytest.fixture(scope="session")
def full_surrogate():
    """Scenario-1 surrogate at the full 50k-pair budget, timed for c5."""
    rng = derive_rng(0, "acceptance", "surrogate")
    start = time.monotonic()
    pairs = generate_pairs(rng, S1, 50_000)
    surr, history = fit_channel(rng, S1, FIT_CONFIG, pairs=pairs)
    elapsed = time.monotonic() - start
    return surr, history, pairs, elapsed


@pytest.fixture(scope="session")
def sweep_results(toy_data):
    """Semantic and baseline accuracy per molecule budget from ``mclink sweep``'s loop."""
    train, test = toy_data
    links = [(n_m, with_overrides(S1, max_molecules=n_m)) for n_m in SWEEP_BUDGETS]
    start = time.monotonic()
    rows = {n_m: {"semantic": sem, "baseline": base}
            for n_m, sem, base in sweep(0, train, test, links, n_pairs=12_000, epochs=25,
                                        trials=2)}
    elapsed = time.monotonic() - start
    return rows, elapsed


class TestCriterion1:
    def test_physics_equivalence(self):
        cfg = ParticleSimConfig(n_particles=100_000,
                                record_times=(0.5, 1.0, 1.2585, 2.0, 4.0), seed=0)
        start = time.monotonic()
        curve = empirical_capture_curve(cfg, S1)
        elapsed = time.monotonic() - start
        checked = [(t, emp, analytic, rel) for t, emp, analytic, rel in curve
                   if analytic >= 1e-3]
        breaches = [(t, rel) for t, _, _, rel in checked if rel > 0.15]
        detail = ", ".join(f"t={t:g}s rel={rel:.1%}" for t, _, _, rel in checked)
        ok = not breaches and elapsed < 120.0
        report(1, "physics equivalence", ok, f"{detail}; runtime {elapsed:.0f}s")
        assert elapsed < 120.0
        assert not breaches, (
            f"probes beyond 15%: {breaches}; the t=0.5s probe measures the "
            "capture formula's own point-concentration error (+19.6% against "
            "the exact sphere integral), not a simulator defect")


class TestCriterion2:
    def test_count_statistics(self):
        quiet = with_overrides(S1, noise_std=0.0, memory=0, slot_s=1.0)
        assert quiet.observation_time() == 1.0
        rng = derive_rng(0, "acceptance", "counts")
        start = time.monotonic()
        symbols = observe_frames(rng, quiet, np.ones((100_000, 1)))[:, 0]
        counts = symbols * (quiet.max_molecules * capture_probability(quiet, 1.0))
        elapsed = time.monotonic() - start
        mean, var = counts.mean(), counts.var(ddof=1)
        ok = (abs(mean - 304.41) / 304.41 < 0.01
              and abs(var - 299.78) / 299.78 < 0.05
              and elapsed < 10.0)
        report(2, "count statistics", ok,
               f"mean {mean:.2f} (target 304.41 +/- 1%), "
               f"var {var:.2f} (target 299.78 +/- 5%), runtime {elapsed:.1f}s")
        assert abs(mean - 304.41) / 304.41 < 0.01
        assert abs(var - 299.78) / 299.78 < 0.05
        assert elapsed < 10.0


class TestCriterion3:
    def test_sir_traces(self):
        start = time.monotonic()
        frame = [1.0] * 5
        dt = 0.01
        traces = {name: sir_trace(scenario(name), frame, dt)
                  for name in ("scenario1", "scenario2")}

        def slot_peaks(trace, slot_s):
            steps = int(round(slot_s / dt))
            return [trace[j * steps:(j + 1) * steps, 1].max() for j in range(5)]

        peaks1 = slot_peaks(traces["scenario1"], S1.slot_s)
        peaks2 = slot_peaks(traces["scenario2"], S2.slot_s)
        ordering = all(p2 > p1 for p1, p2 in zip(peaks1[1:], peaks2[1:]))

        # reconstructed ISI expectation decays strictly within every slot
        # after the first and repeats identically across slots (memory 1)
        grid = np.arange(1, int(round(S1.slot_s / dt)) + 1) * dt
        isi = np.array([count_moments(S1, 1.0, t + S1.slot_s)[0] for t in grid])
        isi_decays = bool(np.all(np.diff(isi) < 0.0))

        # the noiseless steady-state SIR at the sampling instant (the capture
        # peak): row n of a slot holds local time n * dt, so the instant sits
        # on row round(t_obs / dt) of every slot after the first
        quiet = with_overrides(S1, noise_std=0.0)
        steady = sir_trace(quiet, frame, dt)
        steps = int(round(S1.slot_s / dt))
        t_obs = S1.observation_time()
        rows = [j * steps + int(round(t_obs / dt)) - 1 for j in range(1, 5)]
        aligned = all(abs(steady[r, 0] - (j * S1.slot_s + t_obs)) <= dt / 2
                      for j, r in zip(range(1, 5), rows))
        steady_sir = [steady[r, 1] for r in rows]
        in_band = all(29.0 <= s <= 30.0 for s in steady_sir)
        elapsed = time.monotonic() - start
        ok = ordering and isi_decays and aligned and in_band and elapsed < 5.0
        report(3, "SIR trace shape", ok,
               f"fast-flow peaks {['%.1f' % p for p in peaks2[1:]]} all above "
               f"slow-flow {['%.1f' % p for p in peaks1[1:]]}; ISI strictly "
               f"decaying; noiseless steady SIR at the sampling instant "
               f"{['%.2f' % s for s in steady_sir]} in [29, 30]; "
               f"runtime {elapsed:.1f}s")
        assert ordering and isi_decays and aligned and in_band and elapsed < 5.0


class TestCriterion4:
    def test_gradient_integrity(self):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        worst_layers = 0.0
        for act in ("leaky_relu", "sigmoid", "identity", "softmax"):
            net = DenseNet([4, 6, 3], [act, "identity"], rng=rng)
            x = Tensor(rng.normal(size=(3, 4)) + 0.05)
            target = Tensor(rng.normal(size=(3, 3)))

            def loss_fn():
                d = ref.sub(net.forward(x), target)
                return ref.tmean(ref.mul(d, d))

            worst_layers = max(worst_layers, gradient_check(loss_fn, net.parameters()))

        mdn = small_mdn_net(rng, hidden=6)
        ctx = rng.uniform(size=(5, 2))
        tgt = rng.uniform(size=5)
        worst_mdn = gradient_check(lambda: mdn_nll(mdn, (ctx, tgt)), mdn.parameters())

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

        def e2e_loss():
            y = transmit_train(frozen, model, surr, x)
            return nn.cross_entropy(y, z)

        worst_e2e = gradient_check(e2e_loss, model.parameters())
        elapsed = time.monotonic() - start
        ok = worst_layers < 1e-4 and worst_mdn < 1e-4 and worst_e2e < 1e-3 and elapsed < 30.0
        report(4, "gradient integrity", ok,
               f"layers {worst_layers:.2e} (<1e-4), mixture NLL {worst_mdn:.2e} "
               f"(<1e-4), end-to-end {worst_e2e:.2e} (<1e-3), runtime {elapsed:.1f}s")
        assert worst_layers < 1e-4
        assert worst_mdn < 1e-4
        assert worst_e2e < 1e-3
        assert elapsed < 30.0


class TestCriterion5:
    def test_surrogate_fidelity(self, full_surrogate):
        surr, history, pairs, fit_elapsed = full_surrogate
        ctx, tgt = pairs
        n_val = len(tgt) // 10
        held_nll = float(mdn_nll(surr.net, (ctx[:n_val], tgt[:n_val])).data)
        gauss_nll = single_gaussian_nll(tgt[n_val:], tgt[:n_val])

        pctx, ptgt = generate_pairs(derive_rng(0, "acceptance", "probe"), S1, 20_000)
        # each context sent as the two-slot frame [w_prev, w_curr], as the pairs were
        frames = Tensor(pctx[:, ::-1])
        draws = surr.sample_tensor(frames, derive_rng(0, "acceptance", "draws")).data[:, 1]
        worst = 0.0
        for lo in (0.0, 0.2, 0.4, 0.6, 0.8):
            for prev_half in (0, 1):
                sel = ((pctx[:, 0] >= lo) & (pctx[:, 0] < lo + 0.2)
                       & ((pctx[:, 1] >= 0.5) == bool(prev_half)))
                sim_mean = ptgt[sel].mean()
                surr_mean = draws[sel].mean()
                worst = max(worst, abs(surr_mean - sim_mean) / abs(sim_mean))
        ok = held_nll <= gauss_nll and worst < 0.05 and fit_elapsed < 300.0
        report(5, "surrogate fidelity", ok,
               f"held-out NLL {held_nll:.3f} <= single-Gaussian {gauss_nll:.3f}; "
               f"worst bucket mean error {worst:.1%} (<5%); fit {fit_elapsed:.0f}s")
        assert held_nll <= gauss_nll
        assert worst < 0.05
        assert fit_elapsed < 300.0


class TestCriterion6:
    def test_semantic_gain(self, sweep_results):
        rows, elapsed = sweep_results
        acc_full = rows[20000]["semantic"][0]
        acc_4k = rows[4000]["semantic"][0]
        base_4k = rows[4000]["baseline"][0]
        # the sweep covers this criterion's two training runs and more, so
        # its total runtime bounds the criterion's own budget
        ok = acc_full >= 0.60 and acc_4k - base_4k >= 0.10 and elapsed < 900.0
        report(6, "end-to-end semantic gain", ok,
               f"accuracy at n_m=20000: {acc_full:.3f} (>=0.60); at n_m=4000: "
               f"semantic {acc_4k:.3f} vs baseline {base_4k:.3f} "
               f"(gap {100 * (acc_4k - base_4k):.1f} >= 10 points); "
               f"sweep runtime {elapsed:.0f}s (< 900s)")
        assert acc_full >= 0.60
        assert acc_4k - base_4k >= 0.10
        assert elapsed < 900.0


class TestCriterion7:
    def test_cliff_effect(self, sweep_results):
        rows, _ = sweep_results
        base_low = rows[100]["baseline"][0]
        sem_low = rows[100]["semantic"][0]
        baseline_at_chance = abs(base_low - CHANCE) <= 0.10

        sems = [rows[n]["semantic"][0] for n in SWEEP_BUDGETS]
        stays_above = sem_low - base_low >= 0.10
        gaps = np.diff(sems)
        monotone = bool(np.all(gaps >= -0.05))     # noise-tolerant increase
        no_cliff = bool(np.all(np.abs(gaps) <= 0.25))
        graceful = monotone and no_cliff
        ok = baseline_at_chance and (stays_above or graceful)
        curve = ", ".join(f"{n}:{a:.2f}" for n, a in zip(SWEEP_BUDGETS, sems))
        if stays_above:
            verdict = "stays >=10 points above baseline"
        elif graceful:
            verdict = "degrades gracefully"
        else:
            verdict = "neither stays >=10 points above baseline nor degrades gracefully"
        report(7, "cliff effect", ok,
               f"baseline at n_m=100: {base_low:.3f} (within 10 points of "
               f"chance {CHANCE}); semantic curve {{{curve}}} {verdict}"
               f" (max adjacent step {100 * np.abs(gaps).max():.1f} points)")
        assert baseline_at_chance
        assert stays_above or graceful


class TestCriterion8:
    def test_manifest_rerun_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        surr = tmp_path / "surr"
        model = tmp_path / "model"
        assert cli_main(["gen-data", "--seed", "3", "--out", str(data),
                         "--train-count", "320", "--test-count", "80"]) == EXIT_OK
        assert cli_main(["fit-channel", "--seed", "3", "--out", str(surr),
                         "--pairs", "3000", "--epochs", "12"]) == EXIT_OK
        assert cli_main(["train", "--seed", "3", "--out", str(model),
                         "--data", str(data),
                         "--surrogate", str(surr / "surrogate.ckpt"),
                         "--epochs", "5"]) == EXIT_OK
        first = tmp_path / "eval1"
        assert cli_main(["eval", "--seed", "3", "--out", str(first),
                         "--model", str(model / "semantic.ckpt"),
                         "--data", str(data), "--trials", "1"]) == EXIT_OK
        second = tmp_path / "eval2"
        assert cli_main(["eval", "--config", str(first / "manifest.json"),
                         "--out", str(second)]) == EXIT_OK
        metrics_match = (first / "metrics.csv").read_bytes() == \
                        (second / "metrics.csv").read_bytes()

        sir_a, sir_b = tmp_path / "sa", tmp_path / "sb"
        for out in (sir_a, sir_b):
            assert cli_main(["sim-sir", "--scenario", "scenario1",
                             "--out", str(out), "--dt", "0.05"]) == EXIT_OK
        traces_match = (sir_a / "sir_scenario1.csv").read_bytes() == \
                       (sir_b / "sir_scenario1.csv").read_bytes()
        ok = metrics_match and traces_match
        report(8, "determinism", ok,
               f"manifest re-run {'reproduced' if metrics_match else 'did not reproduce'} "
               f"metrics.csv byte for byte; sim-sir traces "
               f"{'byte-identical' if traces_match else 'differ'}")
        assert metrics_match and traces_match
