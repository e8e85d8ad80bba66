"""mclink benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload semantic-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` prints every end-to-end metric;
``--trace 1`` measures the workload untraced for half of ``--seconds`` in a
child process, then on the same schedule under the layer spans of
``timers.py``, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the result object; the line before it
records the environment. See README.md.
"""

import os

# Pin BLAS to one thread before anything can load numpy, so the thread
# count is the benchmark's choice rather than an effect of import order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "MCLINK_BLAS_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Each stage call is charged at the fastest call it repeats (see timers.Stages).
MIN_ROUNDS = 3
# each side of a traced run; two keep a traced semantic-sweep run under two minutes
TRACE_MIN_ROUNDS = 2
REFERENCE_TIMEOUT_S = 120


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


try:
    import mclink
    import numpy as np
except ImportError as err:
    fail(f"cannot import the mclink package from {ROOT / 'src'}: {err}")

import timers
import workloads

END_TO_END = [
    ("setup_s", "s"),
    ("train_images_per_s", "1/s"),
    ("fit_pairs_per_s", "1/s"),
    ("pairs_per_s", "1/s"),
    ("slot_draws_per_s", "1/s"),
    ("oracle_particles_per_s", "1/s"),
    ("eval_frames_per_s", "1/s"),
    ("baseline_images_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# stage key in ``timers.Stages`` for each rate metric
RATE_STAGES = {
    "train_images_per_s": "train",
    "fit_pairs_per_s": "fit",
    "pairs_per_s": "pairs",
    "slot_draws_per_s": "slots",
    "oracle_particles_per_s": "oracle",
    "eval_frames_per_s": "eval",
    "baseline_images_per_s": "baseline",
}

# per-layer self times, by span name
LAYER_TIMES = [
    "nn.dense_forward", "nn.backward", "nn.matmul", "nn.activation", "nn.cross_entropy",
    "nn.sgd_step", "nn.clip_gradients", "nn.checkpoint_io",
    "channel.observe_slot", "channel.observe_frames", "channel.sir_trace",
    "particle.simulate_presence",
    "surrogate.generate_pairs", "surrogate.fit_channel", "surrogate.mdn_nll",
    "surrogate.sample_tensor",
    "transceiver.train_end_to_end", "transceiver.transmit_train",
    "transceiver.evaluate_accuracy", "transceiver.transmit_eval",
    "baseline.train_classifier", "baseline.source_codec", "baseline.channel_codec",
    "baseline.ook_transmit", "baseline.transmit_images",
    "dataset.make_dataset", "dataset.io", "runio.io", "cli.stage",
]


def end_to_end(stages, setups):
    """The end-to-end values; ``setups`` holds the seconds of each set-up."""
    values = {"setup_s": statistics.median(setups)}
    for name, key in RATE_STAGES.items():
        values[name] = stages.rate(key)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


class Snapshot(dict):
    """Totals of every traced quantity at one instant, as {(table, key): value}."""

    def __init__(self, spans, tracer, stages):
        super().__init__()
        for table, totals in (("self_s", spans.self_s), ("calls", spans.calls),
                              ("counts", stages.counts), ("counts", tracer.counts)):
            self.update({(table, key): value for key, value in totals.items()})


def per_layer(marks):
    """Mean over set-ups plus mean over rounds of every traced quantity.

    ``marks`` holds ("setup" or "round", Snapshot) as each period starts and
    a last Snapshot at the end.
    """
    sums, periods = defaultdict(float), Counter()
    for (kind, start), (_, end) in zip(marks, marks[1:]):
        periods[kind] += 1
        for key in set(start) | set(end):
            sums[kind, key] += end.get(key, 0) - start.get(key, 0)

    def value(table, key):
        return sum(sums[kind, (table, key)] / n for kind, n in periods.items())

    out = {f"{name}_s": (value("self_s", name), "s") for name in LAYER_TIMES}
    out["gc.collect_s"] = (value("counts", "gc.collect_s"), "s")
    out["nn.matmul_calls"] = (value("calls", "nn.matmul"), "count")
    out["nn.tensors_created"] = (value("counts", "nn.tensors_created"), "count")
    out["channel.observe_slot_calls"] = (value("calls", "channel.observe_slot"), "count")
    out["channel.capture_probability_calls"] = (
        value("counts", "channel.capture_probability_calls"), "count")
    out["channel.symbols_observed"] = (value("counts", "channel.symbols_observed"), "count")
    out["channel.draws_useful_ratio"] = (
        value("counts", "channel.frames.used") / value("counts", "channel.frames.draws"), "ratio")
    out["particle.normals_drawn"] = (value("counts", "particle.draws"), "count")
    probes_per_call = value("counts", "oracle_probes") / value("calls", "particle.simulate_presence")
    steps_per_generator = (value("counts", "particle.calls.standard_normal")
                           / value("counts", "particle.generators"))
    out["particle.steps_per_probe"] = (steps_per_generator / probes_per_call, "count")
    out["surrogate.fit_epochs"] = (value("counts", "fit_epochs"), "count")
    out["transceiver.train_epochs"] = (value("counts", "train_epochs"), "count")
    out["transceiver.epochs_after_best"] = (value("counts", "epochs_after_best"), "count")
    return out


def measure(workload, ctx, seconds, min_rounds=MIN_ROUNDS, mark=lambda kind: None):
    """Set up, run whole rounds for ``seconds``, and repeat the set-up in between.

    The set-up repeats after the first rounds rather than back to back, so
    the work it times spans the run instead of one stretch of it; it
    rewrites the same files with the same bytes. ``mark(kind)`` is called as
    each set-up or round starts and with "end" at the end. Returns the first
    set-up's state, every set-up's seconds, the last round's outputs and
    every round's digest.
    """
    setups = []

    def setup():
        mark("setup")
        ctx.stages.new_period("setup")
        start = perf_counter()
        state = workload.setup(ctx)
        setups.append(perf_counter() - start)
        return state

    state = setup()
    digests, start = [], perf_counter()
    while len(digests) < min_rounds or perf_counter() - start < seconds:
        mark("round")
        ctx.stages.new_period("round")
        ctx.digest = hashlib.sha256()
        res = workload.round(ctx, state)
        res["fits"] = list(ctx.stages.fits)
        digests.append(ctx.digest.hexdigest())
        if len(setups) < workload.setup_repeats:
            setup()
    while len(setups) < workload.setup_repeats:
        setup()
    mark("end")
    return state, setups, res, digests


def context(seed, work, sizes):
    patches = timers.Patches(mclink)
    spans = timers.Spans()
    stages = timers.Stages()
    stages.install(patches, spans)
    return patches, workloads.Context(seed, work, stages, spans, sizes)


def run(name, seed, seconds, traced, work, size="full", min_rounds=None):
    """Measure one workload; returns (result object, failed checks).

    A traced run first measures the workload untraced for half of
    ``seconds`` in a fresh process, then traced for the other half in this
    one, so that the two sides of the tracing overhead are measured alike:
    the same schedule, in a process of the same age.
    """
    workload = workloads.WORKLOADS[name]()
    if min_rounds is None:
        min_rounds = TRACE_MIN_ROUNDS if traced else MIN_ROUNDS
    problems = []
    if traced:
        seconds /= 2
        reference, problems = untraced_reference(name, seed, seconds, size, min_rounds)
    patches, ctx = context(seed, work, workloads.SIZES[size])
    marks = []
    mark = lambda kind: None
    if traced:
        tracer = timers.Tracer(ctx.spans)
        tracer.install(patches)
        mark = lambda kind: marks.append((kind, Snapshot(ctx.spans, tracer, ctx.stages)))
    try:
        state, setups, res, digests = measure(workload, ctx, seconds, min_rounds, mark)
    finally:
        patches.restore()
    values = end_to_end(ctx.stages, setups)
    if traced:
        metrics = per_layer(marks)
        for m, unit in END_TO_END:
            if m != "peak_rss_mb":
                metrics[f"trace_overhead.{m}"] = (values[m] - reference[m], unit)
    else:
        metrics = {m: (values[m], unit) for m, unit in END_TO_END}
    problems += workload.check(ctx, state, res)
    if len(set(digests)) != 1:
        problems.append(f"the {len(digests)} rounds of one run produced different outputs")
    result = {
        "correct": not problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, problems


def untraced_reference(name, seed, seconds, size, min_rounds):
    """End-to-end values and failed checks of an untraced run in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
            "--size", size, "--min-rounds", str(min_rounds)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"the untraced reference run exited with {proc.returncode}:\n"
                           + proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = [f"untraced reference: {line}" for line in proc.stderr.splitlines()
                if line.startswith("check failed")]
    if not result["correct"] and not problems:
        problems.append("the untraced reference run was not correct")
    return {m: v["value"] for m, v in result["metrics"].items()}, problems


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; smoke sizes are for selftest.py")
    parser.add_argument("--min-rounds", type=int, default=None,
                        help=f"default {MIN_ROUNDS}, or {TRACE_MIN_ROUNDS} per side when traced")
    args = parser.parse_args(argv)
    work = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                               args.size, args.min_rounds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            work.parent.rmdir()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
