"""Correctness checks: program outputs against ``refs`` or required properties.

Each check returns a list of failure messages (empty when it passes), so a
workload collects them all and ``selftest.py`` can feed each check a
deliberately wrong value and confirm that it complains.
"""

from __future__ import annotations

import math

import numpy as np

import refs

# Statistical checks accept a deviation of up to Z standard errors: a
# correct program fails one with probability ~7e-6 per comparison, while a
# 5-standard-error shift is always rejected.
Z = 4.5
CHANCE = 0.25


def close(label, got, ref, rel=1e-9, atol=0.0):
    """|got - ref| <= rel * |ref| + atol elementwise."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} != reference {ref.shape}"]
    excess = np.abs(got - ref) - (rel * np.abs(ref) + atol)
    if not np.all(excess <= 0.0):
        worst = int(np.argmax(excess))
        return [f"{label}: {got.flat[worst]!r} vs reference {ref.flat[worst]!r}"]
    return []


def presence_matches_law(t, empirical, n_particles, exact):
    """An oracle probe lies within Z binomial standard errors of the exact law."""
    se = math.sqrt(exact * (1.0 - exact) / n_particles)
    dev = abs(empirical - exact) / se
    return [] if dev <= Z else [
        f"oracle t={t:g}s: presence {empirical:.6g} is {dev:.1f} SE from exact law {exact:.6g}"]


def count_statistics(counts_mean, counts_var, n_draws, mean, var):
    """Sample mean and variance of n_draws counts match Binomial(n, P) moments."""
    out = []
    se_mean = math.sqrt(var / n_draws)
    se_var = var * math.sqrt(2.0 / (n_draws - 1))
    if abs(counts_mean - mean) > Z * se_mean:
        out.append(f"slot counts: mean {counts_mean:.4f} vs binomial {mean:.4f} "
                   f"({abs(counts_mean - mean) / se_mean:.1f} SE)")
    if abs(counts_var - var) > Z * se_var:
        out.append(f"slot counts: variance {counts_var:.3f} vs binomial {var:.3f} "
                   f"({abs(counts_var - var) / se_var:.1f} SE)")
    return out


def standardized_residuals(label, values, mean, var):
    """Residuals (x - mean) / sd have mean 0 and variance 1 within Z SE."""
    r = (np.asarray(values, dtype=float) - mean) / np.sqrt(var)
    m = len(r)
    out = []
    if abs(r.mean()) > Z / math.sqrt(m):
        out.append(f"{label}: standardized mean {r.mean():+.4f} beyond {Z / math.sqrt(m):.4f}")
    if abs(r.var() - 1.0) > Z * math.sqrt(2.0 / m):
        out.append(f"{label}: standardized variance {r.var():.4f} beyond 1 +/- "
                   f"{Z * math.sqrt(2.0 / m):.4f}")
    return out


def slot_peaks(trace, slot_s, dt, n_slots):
    steps = int(round(slot_s / dt))
    return [float(trace[j * steps:(j + 1) * steps, 1].max()) for j in range(n_slots)]


def peaks_ordered(fast_peaks, slow_peaks):
    """The ISI-free scenario's SIR peak exceeds the ISI-heavy one after slot 1."""
    bad = [j for j in range(1, len(fast_peaks)) if not fast_peaks[j] > slow_peaks[j]]
    return [] if not bad else [
        f"SIR: scenario2 peak not above scenario1 in slot(s) {[j + 1 for j in bad]}"]


def nll_at_or_below(label, model_nll, gaussian_nll):
    return [] if model_nll <= gaussian_nll else [
        f"{label}: held-out NLL {model_nll:.4f} above single Gaussian {gaussian_nll:.4f}"]


def accuracy_at_least(label, accuracy, floor):
    return [] if accuracy >= floor else [f"{label}: accuracy {accuracy:.3f} < {floor}"]


def near_chance(label, accuracy, tol=0.10):
    return [] if abs(accuracy - CHANCE) <= tol else [
        f"{label}: accuracy {accuracy:.3f} not within {tol} of chance {CHANCE}"]


def matches_channel_free(label, accuracy, total, free_accuracy):
    """Error-free transmission: channel-free accuracy inside the Wilson interval."""
    lo, hi = refs.wilson_interval(round(accuracy * total), total)
    return [] if lo <= free_accuracy <= hi else [
        f"{label}: channel-free accuracy {free_accuracy:.4f} outside [{lo:.4f}, {hi:.4f}]"]


def interval(label, accuracy, lo, hi, total):
    """The point estimate lies in its interval, which is the Wilson interval."""
    out = []
    if not lo <= accuracy <= hi:
        out.append(f"{label}: estimate {accuracy} outside [{lo}, {hi}]")
    successes = accuracy * total
    if abs(successes - round(successes)) > 1e-6:
        out.append(f"{label}: accuracy {accuracy} is not a count over {total}")
        return out
    ref_lo, ref_hi = refs.wilson_interval(round(successes), total)
    if abs(lo - ref_lo) > 1e-12 or abs(hi - ref_hi) > 1e-12:
        out.append(f"{label}: interval [{lo}, {hi}] != Wilson [{ref_lo}, {ref_hi}]")
    return out
