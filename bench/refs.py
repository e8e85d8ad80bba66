"""Independent reference computations for the benchmark's checks.

Nothing here imports ``mclink``: every value is computed from the paper's
formulas and textbook statistics, so the checks compare the program with
computations made apart from it. Lengths are in micrometers, times in
seconds, counts in molecules.
"""

from __future__ import annotations

import math

import numpy as np

WILSON_Z = 1.959963984540054   # two-sided 95% normal quantile


def capture_probability(distance, radius, velocity, diffusion, t):
    """The paper's point-concentration capture probability P(t).

    P(t) = V_r (4 pi D t)^(-3/2) exp(-(R - v t)^2 / (4 D t)); broadcasts
    over ``t``.
    """
    t = np.asarray(t, dtype=float)
    volume = 4.0 * math.pi * radius ** 3 / 3.0
    out = volume * (4.0 * math.pi * diffusion * t) ** -1.5 \
        * np.exp(-((distance - velocity * t) ** 2) / (4.0 * diffusion * t))
    return float(out) if out.ndim == 0 else out


def peak_time(distance, velocity, diffusion):
    """Instant of the capture-probability maximum: root of v^2 t^2 + 6 D t - R^2."""
    if velocity == 0.0:
        return distance ** 2 / (6.0 * diffusion)
    a, b, c = velocity ** 2, 6.0 * diffusion, -distance ** 2
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def exact_presence(distance, radius, velocity, diffusion, t, n_grid=200_001):
    """Exact probability that a released molecule lies inside the receiver at t.

    Free drift-diffusion gives the position N(v t e_x, 2 D t I_3), so the
    distance from the sphere's center follows a noncentral chi law with
    three degrees of freedom; its density is integrated over [0, r] with
    the trapezoid rule. This is the sphere-averaged presence law that a
    correct particle simulator reproduces (Jamali et al., Proc. IEEE 2019),
    unlike the point formula, which ignores the cloud's curvature inside
    the sphere.
    """
    s = math.sqrt(2.0 * diffusion * t)
    d = abs(distance - velocity * t)
    u = np.linspace(0.0, radius, n_grid)
    if d < 1e-12:
        pdf = math.sqrt(2.0 / math.pi) * u * u / s ** 3 * np.exp(-u * u / (2.0 * s * s))
    else:
        pdf = u / (s * d * math.sqrt(2.0 * math.pi)) * (
            np.exp(-((u - d) ** 2) / (2.0 * s * s)) - np.exp(-((u + d) ** 2) / (2.0 * s * s)))
    return float(np.sum((pdf[1:] + pdf[:-1]) * np.diff(u)) / 2.0)


def binomial_moments(n, prob):
    """Mean and variance of a Binomial(n, P) count."""
    return n * prob, n * prob * (1.0 - prob)


def slot_symbol_moments(params, w_curr, w_prev, t):
    """Closed-form mean and variance of the normalized slot symbol w_rx.

    w_rx = count / (N P(t)); the count is Binomial(round(w_curr N), P(t))
    plus the one-slot residue Binomial(round(w_prev N), P(t + T)) plus
    N(0, sigma^2) counting noise. ``params`` holds the link constants;
    ``w_curr`` and ``w_prev`` broadcast.
    """
    n_mol = params["max_molecules"]
    link = (params["distance_um"], params["radius_um"], params["velocity_um_s"],
            params["diffusion_um2_s"])
    p_now = capture_probability(*link, t)
    p_isi = capture_probability(*link, t + params["slot_s"])
    n_curr = np.round(np.asarray(w_curr, dtype=float) * n_mol)
    n_prev = np.round(np.asarray(w_prev, dtype=float) * n_mol)
    mean = n_curr * p_now + n_prev * p_isi
    var = n_curr * p_now * (1 - p_now) + n_prev * p_isi * (1 - p_isi) + params["noise_std"] ** 2
    scale = n_mol * p_now
    return mean / scale, var / scale ** 2


def sir_trace(params, symbols, dt):
    """Deterministic SIR rows (t_global, sir) for a frame at step dt.

    Signal and one-slot interference are expected binomial counts; the
    noise magnitude adds to the denominator.
    """
    n_mol = params["max_molecules"]
    link = (params["distance_um"], params["radius_um"], params["velocity_um_s"],
            params["diffusion_um2_s"])
    slot = params["slot_s"]
    steps = int(round(slot / dt))
    t_local = np.arange(1, steps + 1) * dt
    rows = []
    for j, w in enumerate(symbols):
        signal = round(w * n_mol) * capture_probability(*link, t_local)
        isi = round(symbols[j - 1] * n_mol) * capture_probability(*link, t_local + slot) \
            if j >= 1 else 0.0 * t_local
        sir = signal / (isi + params["noise_std"])
        rows.append(np.column_stack([j * slot + t_local, sir]))
    return np.vstack(rows)


def wilson_interval(successes, total, z=WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


def gaussian_nll(train, heldout):
    """Held-out NLL of the single Gaussian moment-matched to ``train``."""
    mu, var = float(np.mean(train)), float(np.var(train))
    heldout = np.asarray(heldout, dtype=float)
    return 0.5 * math.log(2.0 * math.pi * var) + float(np.mean((heldout - mu) ** 2)) / (2.0 * var)


def mixture_nll(pi, mu, sigma2, targets):
    """Mean NLL of ``targets`` under per-row Gaussian mixtures (log-sum-exp)."""
    x = np.asarray(targets, dtype=float)[:, None]
    log_terms = np.log(np.maximum(pi, 1e-300)) - 0.5 * np.log(2.0 * math.pi * sigma2) \
        - (x - mu) ** 2 / (2.0 * sigma2)
    top = log_terms.max(axis=1, keepdims=True)
    return float(-np.mean(top[:, 0] + np.log(np.exp(log_terms - top).sum(axis=1))))


def codec_reconstruction(images, side=16, block=4, bits=1):
    """Channel-free codec round trip: block mean, uniform quantization, repeat."""
    images = np.asarray(images, dtype=float).reshape(-1, side, side)
    small = images.reshape(len(images), side // block, block, side // block, block).mean(axis=(2, 4))
    levels = (1 << bits) - 1
    q = np.round(small * levels) / levels
    return np.repeat(np.repeat(q, block, axis=1), block, axis=2).reshape(len(images), -1)
