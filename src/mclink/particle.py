"""Brownian-dynamics oracle for the diffusive link.

Independent check of the closed-form capture probability. Molecules are
non-interacting particles released at the origin into a constant drift v
along x and a constant diffusion D; the receiver sphere is passive, so no
boundary stops them. A particle's increment over any gap Δ is therefore
exactly Gaussian and independent of its past:

    x(t + Δ) = x(t) + v Δ e_x + sqrt(2 D Δ) ξ,   ξ ~ N(0, I_3).

Each particle cloud takes one such draw from one probe instant to the
next, so the requested instants are met exactly and no step size enters,
and the fraction of particles inside the receiver sphere at each instant
is the empirical presence probability. No expression from
:mod:`mclink.channel` enters the dynamics; the analytic column of the
exported curve is the only point of contact. The exported CSV also
carries the exact sphere-averaged presence (:func:`exact_presence`), so a
probe where the point-concentration formula is off shows as such.

Particles are independent, so the population is split into fixed-size
shards, which bounds memory at any population, with per-shard generators
seeded as SeedSequence((seed, shard)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .channel import ChannelParams, capture_probability

SHARD_SIZE = 20_000


@dataclass(frozen=True)
class ParticleSimConfig:
    """Monte Carlo settings for one presence-probability run."""

    n_particles: int
    record_times: tuple[float, ...]  # probe instants (s); kept sorted, without duplicates
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 1_000:
            raise ValueError("n_particles must be at least 1000 for a usable estimate")
        times = tuple(sorted({float(t) for t in self.record_times}))
        if not times:
            raise ValueError("record_times must not be empty")
        if not all(0 < t < math.inf for t in times):
            raise ValueError("record_times must be positive and finite")
        object.__setattr__(self, "record_times", times)


def default_sim_config(scenario_name: str, n_particles: int = 100_000, seed: int = 0) -> ParticleSimConfig:
    """Per-scenario defaults: probe grid bracketing the capture peak.

    The fast-drift scenario needs a narrow probe window around the
    ballistic arrival, where the presence probability is non-negligible.
    """
    if scenario_name == "scenario2":
        times = (1.4995, 1.4998, 1.5, 1.5002, 1.5005)
    else:
        times = (0.5, 1.0, 1.2585, 2.0, 4.0)
    return ParticleSimConfig(n_particles=n_particles, record_times=times, seed=seed)


def _clouds(rng, n: int, times, p: ChannelParams):
    """Yield (t, positions) of an n-particle cloud at each probe instant.

    One exact Gaussian increment per gap between consecutive instants; the
    positions array is updated in place between yields.
    """
    pos = np.zeros((n, 3))
    prev = 0.0
    for t in times:
        gap = t - prev
        pos += math.sqrt(2.0 * p.diffusion_um2_s * gap) * rng.standard_normal((n, 3))
        pos[:, 0] += p.velocity_um_s * gap
        prev = t
        yield t, pos


def _shard_rng(seed: int, shard: int):
    return np.random.default_rng(np.random.SeedSequence((seed, shard)))


def _run_shard(cfg: ParticleSimConfig, shard: int, n: int, p: ChannelParams) -> np.ndarray:
    """Inside-sphere counts at each probe instant for one particle shard."""
    r2 = p.radius_um * p.radius_um
    counts = np.zeros(len(cfg.record_times), dtype=np.int64)
    for i, (_, pos) in enumerate(_clouds(_shard_rng(cfg.seed, shard), n, cfg.record_times, p)):
        dx = pos[:, 0] - p.distance_um
        dist2 = dx * dx + pos[:, 1] ** 2 + pos[:, 2] ** 2
        counts[i] = np.count_nonzero(dist2 <= r2)
    return counts


def simulate_presence(cfg: ParticleSimConfig, p: ChannelParams) -> list[tuple[float, float]]:
    """Empirical probability of presence in the receiver sphere.

    Returns (t, fraction) pairs, one per distinct probe instant in
    ascending order, with t exactly the requested instant. Deterministic
    for a fixed seed.
    """
    totals = np.zeros(len(cfg.record_times), dtype=np.int64)
    for shard, start in enumerate(range(0, cfg.n_particles, SHARD_SIZE)):
        totals += _run_shard(cfg, shard, min(SHARD_SIZE, cfg.n_particles - start), p)
    return [(t, totals[i] / cfg.n_particles) for i, t in enumerate(cfg.record_times)]


def empirical_capture_curve(
    cfg: ParticleSimConfig, p: ChannelParams
) -> list[tuple[float, float, float, float]]:
    """Empirical vs analytic capture probability over the probe grid.

    Rows are (t, p_empirical, p_analytic, rel_err) with the analytic value
    evaluated at the probe instant.
    """
    rows = []
    for t, emp in simulate_presence(cfg, p):
        analytic = capture_probability(p, t)
        rel_err = abs(emp - analytic) / analytic
        rows.append((t, emp, analytic, rel_err))
    return rows


def exact_presence(p: ChannelParams, t: float, n_grid: int = 200_001) -> float:
    """Exact probability that N(v t e_x, 2 D t I3) lies in the receiver sphere.

    Independent 1-D quadrature of the radial density of the offset from the
    sphere center; the dynamics' marginal at time t is exactly this Gaussian,
    so this is the ground truth the particle oracle must reproduce even where
    the point-concentration formula does not (Jamali et al., Proc. IEEE 2019).
    """
    s = math.sqrt(2.0 * p.diffusion_um2_s * t)
    d = abs(p.distance_um - p.velocity_um_s * t)
    r = p.radius_um
    u = np.linspace(0.0, r, n_grid)
    if d < 1e-12:
        pdf = math.sqrt(2.0 / math.pi) * u * u / s ** 3 * np.exp(-u * u / (2 * s * s))
    else:
        pdf = u / (s * d * math.sqrt(2.0 * math.pi)) * (
            np.exp(-((u - d) ** 2) / (2 * s * s)) - np.exp(-((u + d) ** 2) / (2 * s * s)))
        pdf[0] = 0.0
    return float((np.diff(u) * (pdf[1:] + pdf[:-1]) / 2.0).sum())   # trapezoid rule


def write_capture_csv(path, curve, cfg: ParticleSimConfig, p: ChannelParams) -> None:
    """CSV export plus an adjacent .meta.json echoing seed and config.

    The trailing ``p_exact`` column is :func:`exact_presence` at each probe,
    which shows where the point formula, not the oracle, is off.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_s,p_empirical,p_analytic,rel_err,p_exact\n")
        for t, emp, analytic, rel in curve:
            exact = exact_presence(p, t)
            fh.write(f"{float(t)!r},{float(emp)!r},{float(analytic)!r},{float(rel)!r},"
                     f"{exact!r}\n")
    meta = {"config": asdict(cfg), "channel": asdict(p)}
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def displacement_moments(
    cfg: ParticleSimConfig, p: ChannelParams
) -> list[tuple[float, float, float]]:
    """Mean x displacement and per-axis variance at each probe time.

    Diagnostic for the increments: expectations are v*t and 2*D*t. Draws
    shard 0 of the presence run, capped at SHARD_SIZE particles.
    """
    n = min(cfg.n_particles, SHARD_SIZE)
    return [(t, float(pos[:, 0].mean()), float(pos.var(axis=0, ddof=1).mean()))
            for t, pos in _clouds(_shard_rng(cfg.seed, 0), n, cfg.record_times, p)]
