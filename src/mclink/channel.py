"""Closed-form physics of a diffusive molecular link with uniform drift.

A point transmitter at the origin releases up to ``max_molecules`` identical
molecules at the start of each symbol slot. They spread through an unbounded
3-D fluid with diffusion coefficient D and uniform flow v along the x axis.
A passive spherical receiver of radius r centered at distance R on the x axis
counts the molecules found inside its volume at an observation instant.

The probability that one released molecule is inside the receiver sphere a
time t after release is approximated by the free-space Green's function
integrated over the (small) receiver volume:

    P(t) = V_r / (4 pi D t)^(3/2) * exp(-(R - v t)^2 / (4 D t)),
    V_r  = 4 pi r^3 / 3.

Counts are Binomial(n_released, P(t)), taken Gaussian when the expected
count is large. ``observe_frames`` observes each slot of a frame: its
count adds the residue of the previous ``memory`` slots (inter-symbol
interference) and additive Gaussian counting noise, clamped at zero.
``observe_slot`` is the benchmark's scalar draw of one slot.

All operations are pure; randomness enters only through an explicitly
supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, fields

import numpy as np

from . import runio

# Below this expected count the slot sampler draws the exact binomial;
# above it the Gaussian approximation is used.
GAUSSIAN_COUNT_THRESHOLD = 30.0

# The additive counting-noise level (molecules) used when a scenario does
# not specify one.
DEFAULT_NOISE_STD = 10.0


class InvalidApproximationError(ValueError):
    """Capture probability left its validity region (computed P > 1)."""


@dataclass(frozen=True)
class ChannelParams:
    """Physical description of one molecular link.

    Lengths in micrometers, times in seconds, counts in molecules.
    """

    distance_um: float          # Tx-Rx separation
    radius_um: float            # receiver sphere radius
    velocity_um_s: float        # drift speed along x (>= 0)
    slot_s: float               # symbol slot duration
    diffusion_um2_s: float      # diffusion coefficient
    max_molecules: int          # per-slot molecule budget
    noise_std: float = DEFAULT_NOISE_STD   # additive count noise (std, molecules)
    memory: int = 1             # ISI memory length in slots

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.distance_um > 0:
            raise ValueError("distance_um must be positive")
        if not self.radius_um > 0:
            raise ValueError("radius_um must be positive")
        if not self.radius_um < self.distance_um:
            raise ValueError("receiver radius must be smaller than the Tx-Rx distance")
        if self.velocity_um_s < 0:
            raise ValueError("velocity_um_s must be non-negative")
        if not self.slot_s > 0:
            raise ValueError("slot_s must be positive")
        if not self.diffusion_um2_s > 0:
            raise ValueError("diffusion_um2_s must be positive")
        if int(self.max_molecules) != self.max_molecules or self.max_molecules < 1:
            raise ValueError("max_molecules must be a positive integer")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.memory < 0:
            raise ValueError("memory must be non-negative")

    def receiver_volume_um3(self) -> float:
        return 4.0 * math.pi * self.radius_um ** 3 / 3.0

    def observation_time(self) -> float:
        """Observation instant within a slot: the capture-probability peak,
        capped at the slot length, so the observation maximizes the signal term.
        """
        return min(peak_time(self), self.slot_s)


# Table of built-in link scenarios (distances/velocities in um, um/s).
_SCENARIOS: dict[str, ChannelParams] = {
    # short-range, slow flow: diffusion dominates, strong ISI
    "scenario1": ChannelParams(
        distance_um=100.0, radius_um=20.0, velocity_um_s=50.0,
        slot_s=4.0, diffusion_um2_s=800.0, max_molecules=20_000,
    ),
    # long-range, fast flow: advection dominates, ISI clears between slots
    "scenario2": ChannelParams(
        distance_um=60e4, radius_um=20.0, velocity_um_s=40e4,
        slot_s=3.0, diffusion_um2_s=800.0, max_molecules=20_000,
    ),
}


def scenario(name: str) -> ChannelParams:
    """Look up a built-in scenario by name ('scenario1', 'scenario2')."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}") from None


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


def load_params(path_or_name: str) -> ChannelParams:
    """Load parameters from a built-in scenario name or a key=value file."""
    if path_or_name in _SCENARIOS:
        return _SCENARIOS[path_or_name]
    raw: dict[str, float] = {}
    try:
        fh = open(path_or_name, "r", encoding="utf-8")
    except OSError:
        raise KeyError(
            f"{path_or_name!r} is neither a built-in scenario nor a readable file"
        ) from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path_or_name}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            raw[key.strip()] = float(value.strip())
    known = {f.name for f in fields(ChannelParams)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"{path_or_name}: unknown parameter(s) {sorted(unknown)}")
    for key in sorted(raw.keys() & {"max_molecules", "memory"}):
        if not raw[key].is_integer():
            raise ValueError(f"{path_or_name}: {key} must be a whole number, got {raw[key]!r}")
        raw[key] = int(raw[key])
    return ChannelParams(**raw)  # type: ignore[arg-type]


def capture_probability(p: ChannelParams, t: float) -> float:
    """Probability that a molecule released at t=0 sits inside the receiver at t.

    Evaluated in log space so the t -> 0 limit underflows cleanly to 0
    instead of producing inf * 0.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    log_vr = math.log(p.receiver_volume_um3())
    log_norm = 1.5 * math.log(4.0 * math.pi * p.diffusion_um2_s * t)
    displacement = p.distance_um - p.velocity_um_s * t
    exponent = -(displacement * displacement) / (4.0 * p.diffusion_um2_s * t)
    log_p = log_vr - log_norm + exponent
    if log_p > 0.0:
        raise InvalidApproximationError(
            f"capture probability exp({log_p:.3g}) > 1 at t={t}; the uniform-"
            "concentration approximation is invalid for these parameters"
        )
    return math.exp(log_p)


def peak_time(p: ChannelParams) -> float:
    """Instant at which the capture probability is maximal.

    Setting d/dt log P = 0 gives v^2 t^2 + 6 D t - R^2 = 0; the positive
    root is returned (R^2 / 6D in the drift-free limit).
    """
    d, v, r = p.diffusion_um2_s, p.velocity_um_s, p.distance_um
    if v == 0.0:
        return r * r / (6.0 * d)
    disc = math.sqrt(36.0 * d * d + 4.0 * v * v * r * r)
    return (disc - 6.0 * d) / (2.0 * v * v)


def check_observable(p: ChannelParams) -> float:
    """P at the observation instant, which normalizes every received symbol;
    refuses a link where it is 0 or, in :func:`capture_probability`, above 1."""
    t = p.observation_time()
    prob = capture_probability(p, t)
    if prob == 0.0:
        raise ValueError(f"the link captures nothing at its observation instant t = {t:g} s")
    return prob


def count_moments(p: ChannelParams, w: float, t: float) -> tuple[float, float]:
    """Mean and variance of the received count for release fraction w at time t.

    With n = round(w * max_molecules) released, the count is
    Binomial(n, P(t)): mean n P, variance n P (1 - P).
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"release fraction {w} outside [0, 1]")
    n_released = round(w * p.max_molecules)
    if n_released == 0:
        return 0.0, 0.0
    prob = capture_probability(p, t)
    mean = n_released * prob
    return mean, mean * (1.0 - prob)


@dataclass(frozen=True)
class SlotObservation:
    """One scalar receiver observation."""

    count: float        # observed molecules, >= 0


def observe_slot(
    rng: np.random.Generator,
    p: ChannelParams,
    w_curr: float,
    w_prev_window,
    t: float | None = None,
) -> SlotObservation:
    """Observe one slot: current release + ISI from prior slots + noise.

    The benchmark's scalar draw. ``w_prev_window`` lists the release
    fractions of the preceding slots, most recent first; it may be shorter
    than the channel memory (frame start), in which case the missing entries
    are silent. ``t`` is the in-slot observation instant and defaults to the
    configured one.
    """
    if t is None:
        t = p.observation_time()
    if not 0 < t <= p.slot_s:
        raise ValueError(f"observation instant {t} outside (0, slot_s]")
    count = 0.0
    for i, w in enumerate([w_curr, *[float(v) for v in w_prev_window][: p.memory]]):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"release fraction {w} outside [0, 1]")
        n_released = round(w * p.max_molecules)
        if n_released == 0:
            continue
        prob = capture_probability(p, t + i * p.slot_s)
        mean = n_released * prob
        if mean < GAUSSIAN_COUNT_THRESHOLD:
            count += float(rng.binomial(n_released, prob))
        else:
            count += max(0.0, mean + math.sqrt(mean * (1.0 - prob)) * rng.standard_normal())
    if p.noise_std > 0:
        count += p.noise_std * rng.standard_normal()
    return SlotObservation(count=max(0.0, count))


def normalized_slot_moments(p: ChannelParams, w_curr: float, w_prev_window) -> tuple[float, float]:
    """Closed-form mean and variance of the normalized received symbol w_rx.

    w_rx = count / (max_molecules * P(t)) at the observation instant t; the
    count is the sum of the current-slot binomial, the ISI binomials, and
    the additive noise.
    """
    t = p.observation_time()
    mean, var = count_moments(p, w_curr, t)
    for i, w_past in enumerate([float(v) for v in w_prev_window][: p.memory], start=1):
        m_i, v_i = count_moments(p, w_past, t + i * p.slot_s)
        mean += m_i
        var += v_i
    var += p.noise_std ** 2
    scale = p.max_molecules * check_observable(p)
    return mean / scale, var / (scale * scale)


def observe_frames(rng: np.random.Generator, p: ChannelParams, frames: np.ndarray) -> np.ndarray:
    """Transmit a (B, k) array of frames over consecutive slots.

    Each row is one frame whose first symbol follows silent slots. Slot j
    of a row, observed at t = ``p.observation_time()``, counts its release
    and the up to ``memory`` before it in the row (ISI), the one i slots
    earlier as Binomial(round(w * max_molecules), P(t + i * slot_s)), plus
    Gaussian noise, clamped at zero; its symbol is that count over
    ``max_molecules * P(t)`` (see :func:`check_observable`). Each released
    batch draws only the branch it takes: a binomial where 0 < mean <
    GAUSSIAN_COUNT_THRESHOLD, a normal where the mean is at or above it,
    nothing where it is zero. ``observe_slot``, the benchmark's scalar
    draw, has the same law but draws in another order.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ValueError("frames must be a (batch, symbols) array")
    if frames.size and (frames.min() < 0.0 or frames.max() > 1.0):
        raise ValueError("release fractions outside [0, 1]")
    t = p.observation_time()
    batch, k = frames.shape
    # only lags shorter than the frame reach a slot of it
    lags = min(p.memory, max(k - 1, 0))
    probs = [check_observable(p), *(capture_probability(p, t + i * p.slot_s)
                                    for i in range(1, lags + 1))]
    counts = np.zeros((batch, k))
    for i, prob in enumerate(probs):
        # contribution of the slot released i slots before the observed one
        w = frames[:, : k - i] if i else frames
        n_released = np.round(w * p.max_molecules)
        mean = n_released * prob
        drawn = np.zeros(mean.shape)
        exact = (mean > 0.0) & (mean < GAUSSIAN_COUNT_THRESHOLD)
        drawn[exact] = rng.binomial(n_released[exact].astype(np.int64), prob)
        gauss = mean >= GAUSSIAN_COUNT_THRESHOLD
        m = mean[gauss]
        drawn[gauss] = np.maximum(m + np.sqrt(m * (1.0 - prob)) * rng.standard_normal(m.size), 0.0)
        counts[:, i:] += drawn
    if p.noise_std > 0:
        counts += p.noise_std * rng.standard_normal(counts.shape)
    counts = np.maximum(counts, 0.0)
    return counts / (p.max_molecules * probs[0])


def sir_at(p: ChannelParams, w_seq, j: int, t: float) -> float:
    """Signal-to-interference ratio of slot j observed at in-slot time t.

    Expected counts in numerator and ISI terms, with the noise magnitude
    ``noise_std`` added to the denominator. ``w_seq`` lists the frame's
    release fractions, each in [0, 1].
    """
    if not 0 <= j < len(w_seq):
        raise IndexError(f"slot index {j} outside [0, {len(w_seq)})")
    if w_seq[j] == 0.0:
        return 0.0
    signal = count_moments(p, w_seq[j], t)[0]
    interference = 0.0
    for i in range(1, min(p.memory, j) + 1):
        interference += count_moments(p, w_seq[j - i], t + i * p.slot_s)[0]
    denom = interference + p.noise_std
    if denom == 0.0:
        return math.inf
    return signal / denom


def sir_trace(p: ChannelParams, w_seq, dt: float) -> np.ndarray:
    """Deterministic SIR time series over all slots of a frame.

    Returns an array of (t_global, sir) rows on a uniform grid with step dt,
    covering local times (0, slot_s] of every slot.
    """
    if not 0 < dt < p.slot_s:
        raise ValueError(f"dt must lie in (0, slot_s), got {dt}")
    if len(w_seq) < 1:
        raise ValueError("a frame carries at least one symbol")
    steps = int(round(p.slot_s / dt))
    rows = []
    for j in range(len(w_seq)):
        for n in range(1, steps + 1):
            t_local = n * dt
            rows.append((j * p.slot_s + t_local, sir_at(p, w_seq, j, t_local)))
    return np.array(rows)


def write_sir_csv(path, trace: np.ndarray) -> None:
    """Export a SIR trace as CSV with linear and dB columns (-inf dB at a SIR
    of 0, inf at an infinite one)."""
    def decibels(sir: float) -> float:
        if sir == 0.0:
            return -math.inf
        return sir if math.isinf(sir) else 10.0 * math.log10(sir)

    runio.write_csv(path, ["t_s", "sir", "sir_db"],
                    ((t_global, sir, decibels(sir)) for t_global, sir in trace.tolist()))


def with_overrides(p: ChannelParams, **kwargs) -> ChannelParams:
    """Copy of the parameters with selected fields replaced."""
    return replace(p, **kwargs)
