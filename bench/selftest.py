"""Self-test of the benchmark: smoke-sized workloads and checks fed wrong values.

    python3 bench/selftest.py

Runs every workload at its smoke size, untraced and traced, and asserts
that each completes with every metric and no failed check. Then feeds each
check a deliberately wrong value and asserts that it is rejected, while the
right value passes. Exits 0 when everything holds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "MCLINK_BLAS_THREADS"):
    os.environ[_var] = "1"

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import refs
import run
import workloads

FAILURES = []


def expect(label, condition):
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        FAILURES.append(label)


def rejects(label, failures):
    expect(f"rejects {label}", bool(failures))


def accepts(label, failures):
    expect(f"accepts {label}{': ' + '; '.join(failures) if failures else ''}", not failures)


S1 = dict(distance_um=100.0, radius_um=20.0, velocity_um_s=50.0, diffusion_um2_s=800.0,
          slot_s=4.0, max_molecules=20_000, noise_std=10.0)
LINK = (S1["distance_um"], S1["radius_um"], S1["velocity_um_s"], S1["diffusion_um2_s"])


def smoke():
    work = run.ROOT / ".bench_runs" / f"selftest-{os.getpid()}"
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {traced: {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
                for traced in (False, True)}
    per_layer = None
    try:
        for name in workloads.WORKLOADS:
            for traced in (False, True):
                result, problems = run.run(name, 7, 0.0, traced, work, size="smoke", min_rounds=1)
                metrics = result["metrics"]
                label = f"smoke {name} {'traced' if traced else 'untraced'}"
                accepts(label, problems)
                wanted = ({f"trace_overhead.{m}" for m, _ in run.END_TO_END if m != "peak_rss_mb"}
                          if traced else {m for m, _ in run.END_TO_END})
                expect(f"{label}: reports its metrics", wanted <= set(metrics))
                expect(f"{label}: reports the metrics BENCHMARK.json declares",
                       set(metrics) == declared[traced])
                expect(f"{label}: every value finite",
                       all(math.isfinite(v["value"]) for v in metrics.values()))
                if not traced:
                    expect(f"{label}: every end-to-end value positive",
                           all(v["value"] > 0 for v in metrics.values()))
                # eval-budgets: 8 replays fail among 43 operations per smoke-size round
                expect(f"{label}: replays are the only failed operations",
                       result["failed"] * 43 == result["attempted"] * 8
                       if name == "eval-budgets" else result["failed"] == 0)
                if traced:
                    names = set(metrics)
                    per_layer = names if per_layer is None else per_layer
                    expect(f"{label}: same per-layer names as the other workloads",
                           names == per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return per_layer


def closed_form_presence(distance, radius, velocity, diffusion, t):
    """Noncentral-chi (3 dof) CDF at the radius, in closed form, to cross-check the quadrature."""
    s = math.sqrt(2.0 * diffusion * t)
    d = abs(distance - velocity * t)
    if d == 0.0:   # the cloud centred on the receiver: central chi law
        x = radius / s
        return math.erf(x / math.sqrt(2)) - math.sqrt(2 / math.pi) * x * math.exp(-x * x / 2)
    a, b = (radius - d) / s, (radius + d) / s
    return 0.5 * (math.erf(a / math.sqrt(2)) + math.erf(b / math.sqrt(2))) \
        - s / (d * math.sqrt(2 * math.pi)) * (math.exp(-a * a / 2) - math.exp(-b * b / 2))


def references():
    for t in (0.5, 1.0, 1.2585, 2.0, 4.0):
        quad, closed = refs.exact_presence(*LINK, t), closed_form_presence(*LINK, t)
        expect(f"exact law at t={t}: quadrature {quad:.8g} = closed form {closed:.8g}",
               abs(quad - closed) <= 1e-9 * closed)
    ratio = refs.exact_presence(*LINK, 0.5) / refs.capture_probability(*LINK, 0.5)
    expect(f"exact law is {100 * (ratio - 1):.1f}% above the point formula at 0.5 s (~19.6%)",
           abs(ratio - 1.196) < 0.005)
    mean, var = refs.binomial_moments(20_000, refs.capture_probability(*LINK, 1.0))
    expect(f"C2 moments {mean:.2f}, {var:.2f} match the stated 304.41, 299.78",
           abs(mean - 304.41) < 0.01 and abs(var - 299.78) < 0.01)
    lo, hi = refs.wilson_interval(50, 100)
    expect(f"Wilson interval of 50/100 is [{lo:.4f}, {hi:.4f}]",
           abs(lo - 0.4038) < 1e-4 and abs(hi - 0.5962) < 1e-4)


def check_rejections():
    rng = np.random.default_rng(3)
    n = 100_000
    t = 1.2585
    exact = refs.exact_presence(*LINK, t)
    se = math.sqrt(exact * (1 - exact) / n)
    accepts("presence at the exact law", checks.presence_matches_law(t, exact, n, exact))
    rejects("presence shifted by 5 SE", checks.presence_matches_law(t, exact + 5 * se, n, exact))
    exact05, point05 = refs.exact_presence(*LINK, 0.5), refs.capture_probability(*LINK, 0.5)
    # One 0.5 s probe separates the two laws by (exact - point) / SE, which
    # grows with sqrt(n): about 1.3 SE at the workload's 20k particles.
    for particles in (20_000, 100_000, 1_000_000):
        gap = (exact05 - point05) / math.sqrt(exact05 * (1 - exact05) / particles)
        print(f"     point formula vs exact law at 0.5 s: {gap:.1f} SE at {particles} particles")
    rejects("the point formula in place of the exact law at 0.5 s (1M particles)",
            checks.presence_matches_law(0.5, exact05, 1_000_000, point05))
    rejects("an analytic column from the exact law instead of the point formula",
            checks.close("capture formula", exact05, point05))

    draws = 200_000   # the physics-oracle workload's C2 draws per round
    mean, var = refs.binomial_moments(20_000, refs.capture_probability(*LINK, 1.0))
    accepts("binomial count moments", checks.count_statistics(mean, var, draws, mean, var))
    rejects("a Poisson variance", checks.count_statistics(mean, mean, draws, mean, var))
    rejects("a mean shifted by 5 SE",
            checks.count_statistics(mean + 5 * math.sqrt(var / draws), var, draws, mean, var))

    x = rng.standard_normal(40_000)
    accepts("standard normal residuals", checks.standardized_residuals("r", x, 0.0, 1.0))
    rejects("residuals shifted by 5 SE",
            checks.standardized_residuals("r", x + 5 / math.sqrt(len(x)), 0.0, 1.0))
    rejects("residuals 10% too wide", checks.standardized_residuals("r", 1.1 * x, 0.0, 1.0))

    s2 = dict(S1, distance_um=60e4, velocity_um_s=40e4, slot_s=3.0)
    slow, fast = refs.sir_trace(S1, [1.0] * 5, 0.01), refs.sir_trace(s2, [1.0] * 5, 0.01)
    p_slow = checks.slot_peaks(slow, 4.0, 0.01, 5)
    p_fast = checks.slot_peaks(fast, 3.0, 0.01, 5)
    accepts("scenario2 SIR peaks above scenario1", checks.peaks_ordered(p_fast, p_slow))
    rejects("swapped SIR scenarios", checks.peaks_ordered(p_slow, p_fast))
    bumped = slow.copy()
    bumped[100, 1] *= 1.000001
    rejects("one SIR sample off by 1e-6", checks.close("sir", bumped[:, 1], slow[:, 1]))

    accepts("mixture NLL below the Gaussian", checks.nll_at_or_below("s", 0.1, 0.2))
    rejects("mixture NLL above the Gaussian", checks.nll_at_or_below("s", 0.21, 0.2))
    rejects("semantic accuracy 0.59", checks.accuracy_at_least("a", 0.59, 0.60))
    accepts("baseline at chance", checks.near_chance("b", 0.26))
    rejects("baseline 11 points above chance", checks.near_chance("b", 0.36))
    accepts("channel-free accuracy inside the interval",
            checks.matches_channel_free("b", 0.754, 4000, 0.754))
    rejects("baseline 4 points below channel-free",
            checks.matches_channel_free("b", 0.714, 4000, 0.754))
    lo, hi = refs.wilson_interval(2000, 4000)
    accepts("a Wilson interval", checks.interval("i", 0.5, lo, hi, 4000))
    rejects("an estimate outside its interval", checks.interval("i", 0.5, 0.51, 0.52, 4000))
    half = 1.96 * math.sqrt(0.25 / 4000)
    rejects("a normal-approximation interval",
            checks.interval("i", 0.5, 0.5 - half, 0.5 + half, 4000))


def replay_rejection():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        for d, seed, acc in ((a, 5, "0.5"), (b, 5, "0.5")):
            d.mkdir()
            (d / "manifest.json").write_text(json.dumps({"seed": seed}))
            (d / "metrics.csv").write_text(f"n_m,method,accuracy\n100,semantic,{acc}\n")
        accepts("a faithful replay", [] if workloads.replay_matches(a, b) else ["mismatch"])
        (b / "manifest.json").write_text(json.dumps({"seed": 0}))
        rejects("a replay at seed 0", [] if workloads.replay_matches(a, b) else ["seed"])
        (b / "manifest.json").write_text(json.dumps({"seed": 5}))
        (b / "metrics.csv").write_text("n_m,method,accuracy\n100,semantic,0.51\n")
        rejects("a replay with other metrics", [] if workloads.replay_matches(a, b) else ["csv"])


def refuses_without_program():
    """In a tree holding only the benchmark, run.py exits non-zero and prints no result."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        shutil.copytree(Path(__file__).parent, Path(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "physics-oracle",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
        expect(f"without the program: exit {proc.returncode}, no result",
               proc.returncode != 0 and '"correct"' not in proc.stdout)


def main():
    references()
    check_rejections()
    replay_rejection()
    refuses_without_program()
    smoke()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
