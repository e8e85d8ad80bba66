"""Channel physics: capture probability, count statistics, ISI, SIR."""

import math
from dataclasses import fields

import numpy as np
import pytest

from mclink import channel
from mclink.channel import (
    ChannelParams,
    InvalidApproximationError,
    capture_probability,
    count_moments,
    normalized_slot_moments,
    observe_frames,
    observe_slot,
    peak_time,
    sample_count,
    scenario,
    sir_at,
    sir_trace,
    with_overrides,
)

S1 = scenario("scenario1")
S2 = scenario("scenario2")


def write_params(path, p):
    """A scenario file: one ``key = value`` line per ChannelParams field."""
    lines = [f"{f.name} = {getattr(p, f.name)!r}\n" for f in fields(p)]
    path.write_text("# molecular link parameters\n" + "".join(lines))

# Frozen scalar evaluations of the capture formula (30-digit arithmetic).
P1_AT_2 = 0.0117539496572449226
P1_AT_1 = 0.0152207571157518254
S1_PEAK = 1.25846793981792759
P1_AT_PEAK = 0.0167384982287897963
P1_AT_PEAK_PLUS_SLOT = 5.69323129087783873e-4
S2_PEAK = 1.499999985
P2_AT_PEAK = 0.0180963894654606954
S1_SIR_NOISELESS = 29.4006994860890133
S2_SIR_NOISE10 = 36.1927789309213907
S1_MEAN_W1_T1 = 304.415142315036508
S1_VAR_W1_T1 = 299.781713371502312


class TestChannelParams:
    def test_scenario_values(self):
        assert S1.distance_um == 100.0 and S1.slot_s == 4.0 and S1.max_molecules == 20_000
        assert S2.distance_um == 60e4 and S2.velocity_um_s == 40e4 and S2.slot_s == 3.0
        assert S1.memory == 1 and S1.noise_std == 10.0

    @pytest.mark.parametrize("bad", [
        dict(distance_um=-1.0),
        dict(radius_um=0.0),
        dict(radius_um=200.0),           # must stay below the distance
        dict(velocity_um_s=-5.0),
        dict(slot_s=0.0),
        dict(diffusion_um2_s=0.0),
        dict(max_molecules=0),
        dict(noise_std=-1.0),
        dict(memory=-1),
    ])
    def test_invariants_rejected(self, bad):
        with pytest.raises(ValueError):
            with_overrides(S1, **bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["distance_um", "radius_um", "velocity_um_s", "slot_s",
                                      "diffusion_um2_s", "noise_std"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            with_overrides(S1, **{name: value})

    def test_observation_time_default_is_capped_peak(self):
        assert S1.observation_time() == pytest.approx(S1_PEAK, rel=1e-12)
        slow = with_overrides(S1, slot_s=1.0)
        assert slow.observation_time() == 1.0

    def test_scenario_lookup(self):
        with pytest.raises(KeyError):
            scenario("scenario3")

    def test_params_file_roundtrip(self, tmp_path):
        path = tmp_path / "link.cfg"
        write_params(path, S2)
        assert channel.load_params(str(path)) == S2
        assert channel.load_params("scenario1") == S1

    def test_params_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("distance_um = 10\nwarp_factor = 9\n")
        with pytest.raises(ValueError, match="warp_factor"):
            channel.load_params(str(path))
        # the observation instant follows from the link; it is not a setting
        path.write_text("distance_um = 10\nobserve_at_s = 1.0\n")
        with pytest.raises(ValueError, match="observe_at_s"):
            channel.load_params(str(path))

    @pytest.mark.parametrize("line", ["max_molecules = 100.5", "memory = 1.7"])
    def test_params_file_rejects_fractional_integers(self, tmp_path, line):
        path = tmp_path / "frac.cfg"
        write_params(path, S1)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match="whole number"):
            channel.load_params(str(path))

    def test_params_file_accepts_integral_floats(self, tmp_path):
        path = tmp_path / "whole.cfg"
        write_params(path, S1)
        path.write_text(path.read_text() + "max_molecules = 100.0\nmemory = 2.0\n")
        p = channel.load_params(str(path))
        assert (p.max_molecules, p.memory) == (100, 2)
        assert type(p.max_molecules) is int and type(p.memory) is int


class TestCaptureProbability:
    def test_scenario1_point_values(self):
        assert capture_probability(S1, 2.0) == pytest.approx(P1_AT_2, rel=1e-9)
        assert capture_probability(S1, 1.0) == pytest.approx(P1_AT_1, rel=1e-9)

    def test_nonpositive_time_rejected(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                capture_probability(S1, t)

    def test_early_time_limit_underflows_to_zero(self):
        assert capture_probability(S1, 1e-9) == 0.0

    def test_positive_in_operating_window(self):
        for t in np.geomspace(0.05, 50.0, 25):
            assert capture_probability(S1, float(t)) > 0.0

    def test_vanishes_at_both_ends(self):
        assert capture_probability(S1, 1e-6) < 1e-300
        assert capture_probability(S1, 1e6) < 1e-300

    def test_invalid_approximation_raises(self):
        fat = ChannelParams(distance_um=10.0, radius_um=9.9, velocity_um_s=1.0,
                            slot_s=20.0, diffusion_um2_s=1e-3, max_molecules=10)
        with pytest.raises(InvalidApproximationError):
            capture_probability(fat, 10.0)


class TestPeakTime:
    def test_scenario1(self):
        t_star = peak_time(S1)
        assert t_star == pytest.approx(S1_PEAK, rel=1e-12)
        assert capture_probability(S1, t_star) == pytest.approx(P1_AT_PEAK, rel=1e-9)

    def test_scenario2_is_ballistic_arrival(self):
        assert peak_time(S2) == pytest.approx(S2_PEAK, rel=1e-9)
        assert peak_time(S2) == pytest.approx(S2.distance_um / S2.velocity_um_s, rel=1e-6)

    def test_zero_drift_closed_form(self):
        still = with_overrides(S1, velocity_um_s=0.0)
        assert peak_time(still) == pytest.approx(100.0 ** 2 / (6 * 800.0), rel=1e-12)

    @pytest.mark.parametrize("p", [S1, S2, with_overrides(S1, velocity_um_s=0.0)])
    def test_is_interior_maximum(self, p):
        t_star = peak_time(p)
        p_star = capture_probability(p, t_star)
        h = 1e-6 * t_star
        assert p_star >= capture_probability(p, t_star - h)
        assert p_star >= capture_probability(p, t_star + h)
        # derivative changes sign across the peak
        left = capture_probability(p, t_star * 0.9)
        right = capture_probability(p, t_star * 1.1)
        assert left < p_star > right


class TestCountMoments:
    def test_scenario1_full_release(self):
        mean, var = count_moments(S1, 1.0, 1.0)
        assert mean == pytest.approx(S1_MEAN_W1_T1, rel=1e-9)
        assert var == pytest.approx(S1_VAR_W1_T1, rel=1e-9)

    def test_zero_release(self):
        assert count_moments(S1, 0.0, 3.0) == (0.0, 0.0)

    def test_linear_in_release(self):
        mean, _ = count_moments(S1, 0.5, 1.0)
        assert mean == pytest.approx(S1_MEAN_W1_T1 / 2, rel=1e-9)

    def test_fraction_range_checked(self):
        with pytest.raises(ValueError):
            count_moments(S1, 1.2, 1.0)


class TestSampleCount:
    def test_zero_release_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample_count(rng, S1, 0.0, 1.0) == 0.0 for _ in range(50))

    def test_moments_match_analytic(self):
        rng = np.random.default_rng(7)
        n = 20_000
        draws = np.array([sample_count(rng, S1, 1.0, 1.0) for _ in range(n)])
        se_mean = math.sqrt(S1_VAR_W1_T1 / n)
        assert abs(draws.mean() - S1_MEAN_W1_T1) < 3 * se_mean
        se_var = S1_VAR_W1_T1 * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - S1_VAR_W1_T1) < 3 * se_var

    def test_binomial_branch_used_for_small_counts(self):
        rng = np.random.default_rng(3)
        tiny = with_overrides(S1, max_molecules=100)   # mean ~ 1.5 molecules
        draws = np.array([sample_count(rng, tiny, 1.0, 1.0) for _ in range(20_000)])
        assert np.allclose(draws, np.round(draws))     # integer-valued
        mean = 100 * P1_AT_1
        assert abs(draws.mean() - mean) < 3 * math.sqrt(mean / 20_000)

    def test_degenerate_capture_probability(self, monkeypatch):
        monkeypatch.setattr(channel, "capture_probability", lambda p, t: 1.0)
        rng = np.random.default_rng(0)
        assert sample_count(rng, S1, 0.5, 1.0) == round(0.5 * S1.max_molecules)


class TestObserveSlot:
    def test_all_silent_is_zero(self):
        quiet = with_overrides(S1, noise_std=0.0)
        obs = observe_slot(np.random.default_rng(0), quiet, 0.0, [0.0])
        assert obs.count == 0.0 and obs.w_rx == 0.0

    def test_mean_count_with_isi(self):
        quiet = with_overrides(S1, noise_std=0.0)
        rng = np.random.default_rng(11)
        n = 20_000
        counts = np.array([observe_slot(rng, quiet, 1.0, [1.0]).count for _ in range(n)])
        expected = S1.max_molecules * (P1_AT_PEAK + P1_AT_PEAK_PLUS_SLOT)
        assert abs(counts.mean() - expected) < 3 * counts.std(ddof=1) / math.sqrt(n)

    def test_fast_flow_clears_isi(self):
        # exp(-1e8) underflows exactly, so a full previous slot draws nothing
        # and leaves the noise draw where a silent one would
        full = observe_slot(np.random.default_rng(2), S2, 1.0, [1.0])
        silent = observe_slot(np.random.default_rng(2), S2, 1.0, [0.0])
        assert full == silent

    def test_short_window_is_zero_padded(self):
        short = observe_slot(np.random.default_rng(3), S1, 1.0, [])
        padded = observe_slot(np.random.default_rng(3), S1, 1.0, [0.0])
        assert short == padded

    def test_counts_clamped_nonnegative(self):
        loud = with_overrides(S1, noise_std=500.0)
        rng = np.random.default_rng(4)
        assert all(observe_slot(rng, loud, 0.0, [0.0]).count >= 0.0 for _ in range(200))

    def test_observation_instant_validated(self):
        with pytest.raises(ValueError):
            observe_slot(np.random.default_rng(0), S1, 1.0, [0.0], t=5.0)

    def test_reduces_to_sample_count_without_isi_and_noise(self):
        bare = with_overrides(S1, noise_std=0.0, memory=0)
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        n = 10_000
        a = np.array([observe_slot(rng_a, bare, 0.8, [], 1.0).count for _ in range(n)])
        b = np.array([sample_count(rng_b, bare, 0.8, 1.0) for _ in range(n)])
        assert np.array_equal(a, b)    # identical draws, not just equal moments

    def test_w_rx_normalization(self):
        obs = observe_slot(np.random.default_rng(5), S1, 1.0, [1.0])
        t = S1.observation_time()
        assert obs.w_rx == pytest.approx(
            obs.count / (S1.max_molecules * capture_probability(S1, t)), rel=1e-12)

    def test_normalized_moments_match_monte_carlo(self):
        rng = np.random.default_rng(21)
        n = 20_000
        w_rx = np.array([observe_slot(rng, S1, 0.7, [0.4]).w_rx for _ in range(n)])
        mean, var = normalized_slot_moments(S1, 0.7, [0.4])
        assert abs(w_rx.mean() - mean) < 3 * math.sqrt(var / n)
        assert abs(w_rx.var(ddof=1) - var) < 4 * var * math.sqrt(2.0 / n)


class TestObserveFrames:
    def test_matches_scalar_path_statistics(self):
        rng = np.random.default_rng(31)
        frames = np.tile([[1.0, 0.25, 0.75]], (4000, 1))
        w_rx = observe_frames(rng, S1, frames)
        assert w_rx.shape == frames.shape
        for j, window in [(0, []), (1, [1.0]), (2, [0.25])]:
            mean, var = normalized_slot_moments(S1, frames[0, j], window)
            assert abs(w_rx[:, j].mean() - mean) < 4 * math.sqrt(var / 4000)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            observe_frames(rng, S1, np.array([1.0, 0.5]))      # not 2-D
        with pytest.raises(ValueError):
            observe_frames(rng, S1, np.array([[1.5, 0.0]]))    # out of range

    def test_frame_start_is_silent(self):
        quiet = with_overrides(S1, noise_std=0.0)
        w_rx = observe_frames(np.random.default_rng(1), quiet, np.zeros((10, 3)))
        assert np.all(w_rx == 0.0)

    def test_draws_only_the_branch_each_entry_takes(self):
        class Recording:
            """Generator facade that counts the variates of each method."""

            def __init__(self, rng):
                self._rng = rng
                self.drawn = {"binomial": 0, "standard_normal": 0}

            def binomial(self, n, prob):
                self.drawn["binomial"] += np.size(n)
                return self._rng.binomial(n, prob)

            def standard_normal(self, size):
                self.drawn["standard_normal"] += int(np.prod(size))
                return self._rng.standard_normal(size)

        # On scenario 1 the current slot's mean is ~335 w molecules, so 0.05
        # stays under the Gaussian threshold while 0.5 and 1.0 clear it; the
        # previous slot's residue (~11.4 w) is always under it. Per row:
        # binomials for 0.05 now and for 0.05 and 1.0 one slot back (3),
        # normals for 1.0 and 0.5 now plus one noise draw per slot (2 + 4).
        frames = np.tile([0.0, 0.05, 1.0, 0.5], (10, 1))
        rec = Recording(np.random.default_rng(3))
        observe_frames(rec, S1, frames)
        assert rec.drawn == {"binomial": 30, "standard_normal": 60}

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_memory_beyond_the_frame_changes_nothing(self, k):
        # a lag of k slots or more reaches no slot of a k-slot frame, so such a
        # memory draws what memory k - 1 draws, and no more
        frames = np.random.default_rng(11).uniform(size=(20, k))
        rng = np.random.default_rng(12)
        want = observe_frames(rng, with_overrides(S1, memory=k - 1), frames), rng.random()
        for memory in (k, k + 1, k + 5):
            rng = np.random.default_rng(12)
            got = observe_frames(rng, with_overrides(S1, memory=memory), frames), rng.random()
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


class TestSir:
    def test_zero_symbol_gives_zero(self):
        assert sir_at(S1, [0.0, 1.0], 0, 1.0) == 0.0

    def test_scenario1_noiseless_peak(self):
        quiet = with_overrides(S1, noise_std=0.0)
        assert sir_at(quiet, [1.0, 1.0], 1, S1_PEAK) == pytest.approx(
            S1_SIR_NOISELESS, rel=1e-9)

    def test_scenario2_with_noise(self):
        assert sir_at(S2, [1.0, 1.0], 1, S2_PEAK) == pytest.approx(
            S2_SIR_NOISE10, rel=1e-9)

    def test_index_range_checked(self):
        with pytest.raises(IndexError):
            sir_at(S1, [1.0], 1, 1.0)

    def test_infinite_sentinel_when_denominator_vanishes(self):
        quiet = with_overrides(S1, noise_std=0.0)
        assert sir_at(quiet, [0.0, 1.0], 1, 1.0) == math.inf

    def test_frame_start_has_no_isi(self):
        assert sir_at(S1, [1.0], 0, 1.0) == pytest.approx(
            S1.max_molecules * P1_AT_1 / S1.noise_std, rel=1e-9)

    @pytest.mark.parametrize("n_m", [1_000, 10_000, 100_000])
    def test_scale_invariance_in_budget(self, n_m):
        quiet = with_overrides(S1, noise_std=0.0, max_molecules=n_m)
        assert sir_at(quiet, [1.0, 1.0], 1, S1_PEAK) == pytest.approx(
            S1_SIR_NOISELESS, rel=1e-9)


class TestSirTrace:
    def test_row_count_and_time_axis(self):
        trace = sir_trace(S1, [1.0] * 5, dt=0.05)
        assert trace.shape == (5 * int(4.0 / 0.05), 2)
        assert np.all(np.diff(trace[:, 0]) > 0)

    def test_all_zero_frame(self):
        trace = sir_trace(S1, [0.0, 0.0], dt=0.5)
        assert np.all(trace[:, 1] == 0.0)

    def test_deterministic(self):
        a = sir_trace(S2, [1.0] * 3, dt=0.1)
        b = sir_trace(S2, [1.0] * 3, dt=0.1)
        assert np.array_equal(a, b)

    def test_dt_validated(self):
        with pytest.raises(ValueError):
            sir_trace(S1, [1.0], dt=4.0)

    def test_frame_validated(self):
        with pytest.raises(ValueError, match="at least one symbol"):
            sir_trace(S1, [], dt=0.5)
        with pytest.raises(ValueError, match="outside"):
            sir_trace(S1, [0.0, 0.5, 1.2], dt=0.5)

    def test_memory_beyond_the_frame_changes_nothing(self):
        w_seq = [1.0, 0.5, 0.0, 1.0, 0.25]
        want = sir_trace(with_overrides(S1, memory=len(w_seq) - 1), w_seq, dt=0.05)
        assert np.array_equal(sir_trace(with_overrides(S1, memory=10 ** 6), w_seq, dt=0.05), want)

    def test_csv_export(self, tmp_path):
        trace = sir_trace(S1, [0.0, 1.0], dt=1.0)
        path = tmp_path / "trace.csv"
        channel.write_sir_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,sir,sir_db"
        assert len(lines) == 1 + len(trace)
        assert lines[1].endswith("-inf")   # silent first slot
