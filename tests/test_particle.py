"""Brownian-dynamics oracle vs the closed-form capture probability."""

import math

import numpy as np
import pytest

from mclink.channel import capture_probability, scenario, with_overrides
from mclink.particle import (
    ParticleSimConfig,
    default_sim_config,
    displacement_moments,
    empirical_capture_curve,
    exact_presence,
    simulate_presence,
    write_capture_csv,
)

S1 = scenario("scenario1")
S2 = scenario("scenario2")


class TestConfig:
    def test_rejects_thin_population(self):
        with pytest.raises(ValueError):
            ParticleSimConfig(n_particles=10, record_times=(0.5,))

    def test_rejects_out_of_range_probes(self):
        for times in ((0.5, 0.0), (-1.0,), (0.5, math.inf), (math.nan,), ()):
            with pytest.raises(ValueError):
                ParticleSimConfig(n_particles=2000, record_times=times)

    def test_scenario_defaults(self):
        cfg1 = default_sim_config("scenario1")
        cfg2 = default_sim_config("scenario2")
        assert cfg1.record_times == (0.5, 1.0, 1.2585, 2.0, 4.0)
        assert cfg2.record_times == (1.4995, 1.4998, 1.5, 1.5002, 1.5005)
        assert cfg1.n_particles == cfg2.n_particles == 100_000


class TestPresence:
    def test_matches_exact_law_everywhere(self):
        # includes t = 0.5 s, where the point-concentration formula is ~20%
        # low because the cloud spread is comparable to the receiver radius;
        # the simulator must track the exact sphere-averaged value there
        cfg = ParticleSimConfig(n_particles=40_000, record_times=(0.5, 1.0, 2.0), seed=42)
        for t, emp in simulate_presence(cfg, S1):
            truth = exact_presence(S1, t)
            se = math.sqrt(truth * (1 - truth) / 40_000)
            assert abs(emp - truth) < 3.5 * se

    def test_matches_exact_law_scenario2_defaults(self):
        cfg = default_sim_config("scenario2")
        for t, emp in simulate_presence(cfg, S2):
            truth = exact_presence(S2, t)
            se = math.sqrt(truth * (1 - truth) / cfg.n_particles)
            assert abs(emp - truth) < 4.5 * se

    def test_matches_formula_in_validity_region(self):
        # the formula sits 3.7-4.7% above the exact law at these probes; 200k
        # particles put the 15% gate 5.6-6.5 SE from the expected reading
        cfg = ParticleSimConfig(n_particles=200_000, record_times=(1.0, 1.2585, 2.0), seed=42)
        for t, emp in simulate_presence(cfg, S1):
            analytic = capture_probability(S1, t)
            assert abs(emp - analytic) / analytic < 0.15

    def test_matches_formula_scenario2(self):
        # the formula's validity gate (analytic >= 1e-3) holds at these probes;
        # it reads 4.0-5.1% above the exact law, 5.9-6.3 SE inside the 15% gate
        cfg = ParticleSimConfig(n_particles=200_000, record_times=(1.4999, 1.5, 1.5001), seed=7)
        for t, emp in simulate_presence(cfg, S2):
            analytic = capture_probability(S2, t)
            assert analytic >= 1e-3
            assert abs(emp - analytic) / analytic < 0.15

    def test_deterministic_for_a_seed(self):
        cfg = ParticleSimConfig(n_particles=50_000, record_times=(0.3, 0.6), seed=5)
        assert simulate_presence(cfg, S1) == simulate_presence(cfg, S1)

    def test_returns_requested_instants_exactly(self):
        messy = ParticleSimConfig(n_particles=2000, record_times=(1.2585, 0.5, 1.2585, 1.0),
                                  seed=4)
        tidy = ParticleSimConfig(n_particles=2000, record_times=(0.5, 1.0, 1.2585), seed=4)
        rows = simulate_presence(messy, S1)
        assert [t for t, _ in rows] == [0.5, 1.0, 1.2585]
        assert rows == simulate_presence(tidy, S1)

    def test_intermediate_probes_leave_the_law_unchanged(self):
        # the path is Markov with Gaussian increments: reaching 0.5 s in one
        # draw or through 0.1 s and 0.25 s samples the same presence law
        (_, alone), = simulate_presence(
            ParticleSimConfig(n_particles=10_000, record_times=(0.5,), seed=11), S1)
        *_, (_, chained) = simulate_presence(
            ParticleSimConfig(n_particles=10_000, record_times=(0.1, 0.25, 0.5), seed=11), S1)
        se = math.sqrt(2 * alone * (1 - alone) / 10_000)
        assert abs(alone - chained) < 3 * se

    def test_ballistic_limit(self):
        nearly_frozen = with_overrides(S1, diffusion_um2_s=1e-9)
        cfg = ParticleSimConfig(n_particles=1000, record_times=(2.0,), seed=0)
        (_, emp), = simulate_presence(cfg, nearly_frozen)
        assert emp == 1.0          # cloud rides the drift into the sphere

    def test_early_time_without_drift(self):
        still = with_overrides(S1, velocity_um_s=0.0)
        cfg = ParticleSimConfig(n_particles=5000, record_times=(0.01,), seed=1)
        (_, emp), = simulate_presence(cfg, still)
        assert emp == 0.0          # particles start 100 um from a 20 um sphere


class TestDisplacementMoments:
    def test_integrator_moments(self):
        cfg = ParticleSimConfig(n_particles=20_000, record_times=(0.5, 1.0), seed=3)
        for t, mean_x, var in displacement_moments(cfg, S1):
            n = 20_000
            sigma2 = 2 * S1.diffusion_um2_s * t
            assert abs(mean_x - S1.velocity_um_s * t) < 3 * math.sqrt(sigma2 / n)
            assert abs(var - sigma2) < 3 * sigma2 * math.sqrt(2.0 / n)


class TestCurve:
    def test_peak_location(self):
        # the exact law at 1.2585 s sits only 0.0013 above its value at 1.0 s;
        # 500k particles put that gap about 5 SE clear at any seed
        cfg = ParticleSimConfig(n_particles=500_000, record_times=(0.5, 1.0, 1.2585, 2.0),
                                seed=9)
        curve = empirical_capture_curve(cfg, S1)
        times = [row[0] for row in curve]
        empirical = [row[1] for row in curve]
        assert times[int(np.argmax(empirical))] == pytest.approx(1.2585, abs=1e-3)

    def test_relative_error_column(self):
        cfg = ParticleSimConfig(n_particles=2000, record_times=(1.0,), seed=2)
        (t, emp, analytic, rel), = empirical_capture_curve(cfg, S1)
        assert rel == pytest.approx(abs(emp - analytic) / analytic, rel=1e-12)

    def test_csv_deterministic_with_metadata(self, tmp_path):
        cfg = ParticleSimConfig(n_particles=2000, record_times=(0.5, 1.0), seed=2)
        curve = empirical_capture_curve(cfg, S1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_capture_csv(p1, curve, cfg, S1)
        write_capture_csv(p2, empirical_capture_curve(cfg, S1), cfg, S1)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "t_s,p_empirical,p_analytic,rel_err,p_exact"
        assert [float(line.split(",")[4]) for line in lines[1:]] == [
            exact_presence(S1, t) for t, *_ in curve]
        assert (tmp_path / "a.csv.meta.json").exists()
