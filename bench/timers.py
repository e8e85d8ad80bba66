"""Timers placed by the benchmark around calls into the package's modules.

Two kinds of instrumentation, both installed from outside the program by
rebinding public names for the duration of a run and restoring them after:

* stage timers (always on): the wall time and work of each coarse stage
  call -- ``fit_channel``, ``train_end_to_end`` and ``simulate_presence``
  -- from which the end-to-end rates are computed (see ``Stages``). The
  benchmark times its own slot-draw and pair chunks, ``baseline_evaluate``
  calls and CLI ``eval`` runs itself. Two clock reads per stage call.
* layer spans (traced runs only): a span around every public function
  listed in ``LAYER_SPANS`` plus the counters in ``Tracer.install``.
  Each span's self time is its duration minus the time of the spans it
  encloses.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, owner attribute or None for a module function, function, span name);
# the stage functions of ``Stages.install`` are spans already
LAYER_SPANS = [
    ("nn", "DenseNet", "forward", "nn.dense_forward"),
    ("nn", "Tensor", "backward", "nn.backward"),
    ("nn", None, "matmul", "nn.matmul"),
    ("nn", None, "apply_activation", "nn.activation"),
    ("nn", None, "cross_entropy", "nn.cross_entropy"),
    ("nn", "SGD", "step", "nn.sgd_step"),
    ("nn", None, "clip_gradients", "nn.clip_gradients"),
    ("nn", None, "save_checkpoint", "nn.checkpoint_io"),
    ("nn", None, "load_checkpoint", "nn.checkpoint_io"),
    ("channel", None, "observe_slot", "channel.observe_slot"),
    ("channel", None, "sir_trace", "channel.sir_trace"),
    ("surrogate", None, "mdn_nll", "surrogate.mdn_nll"),
    ("surrogate", "ChannelSurrogate", "sample_tensor", "surrogate.sample_tensor"),
    ("transceiver", None, "transmit_train", "transceiver.transmit_train"),
    ("transceiver", None, "transmit_eval", "transceiver.transmit_eval"),
    ("baseline", None, "train_baseline_classifier", "baseline.train_classifier"),
    ("baseline", None, "source_encode", "baseline.source_codec"),
    ("baseline", None, "source_decode", "baseline.source_codec"),
    ("baseline", None, "channel_encode", "baseline.channel_codec"),
    ("baseline", None, "channel_decode", "baseline.channel_codec"),
    ("baseline", None, "ook_transmit", "baseline.ook_transmit"),
    ("baseline", None, "transmit_images", "baseline.transmit_images"),
    ("dataset", None, "make_dataset", "dataset.make_dataset"),
    ("dataset", None, "save_dataset", "dataset.io"),
    ("dataset", None, "load_dataset", "dataset.io"),
    ("runio", None, "write_csv", "runio.io"),
    ("runio", None, "write_manifest", "runio.io"),
    ("runio", None, "load_manifest", "runio.io"),
    ("runio", None, "sha256_file", "runio.io"),
]


class Patches:
    """Rebinds names in the package's modules and restores them."""

    def __init__(self, package):
        self.package = package
        self._saved = []

    def module(self, name):
        return sys.modules[f"{self.package.__name__}.{name}"]

    def replace(self, module, owner, attr, make):
        """Swap ``attr`` for ``make(original)`` wherever the package binds it.

        A module function is rebound in every package module that imported
        it by name, so calls through ``from .x import f`` are covered too.
        """
        mod = self.module(module)
        if owner is not None:
            cls = getattr(mod, owner)
            original = cls.__dict__[attr]
            self.set(cls, attr, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if name == self.package.__name__ or name.startswith(self.package.__name__ + "."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self.set(other, key, wrapper)

    def set(self, target, attr, value):
        """Set ``target.attr`` to ``value``, remembering the old value."""
        self._saved.append((target, attr, getattr(target, attr) if not isinstance(target, type)
                            else target.__dict__[attr]))
        setattr(target, attr, value)

    def append(self, items, item):
        """Append ``item`` to the list ``items`` until ``restore``."""
        items.append(item)
        self._saved.append((items, None, item))

    def restore(self):
        while self._saved:
            target, attr, value = self._saved.pop()
            if attr is None:
                target.remove(value)
            else:
                setattr(target, attr, value)


class Spans:
    """Span stack: per-name self time and call counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._children = []

    def wrap(self, name, fn, before=None, after=None, args_hook=None):
        """``fn`` timed as span ``name``.

        ``before(bound)`` runs first; ``after(bound, result, seconds)`` runs
        after a call that returned. ``bound`` holds the call's arguments by
        parameter name. ``args_hook(args, kwargs)`` may substitute arguments
        before the call.
        """
        sig = inspect.signature(fn) if (before or after) else None
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if args_hook is not None:
                args, kwargs = args_hook(args, kwargs)
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if before is not None:
                before(bound)
            spans._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = spans._children.pop()
                spans.self_s[name] += elapsed - child
                spans.calls[name] += 1
                if spans._children:
                    spans._children[-1] += elapsed
            if after is not None:
                after(bound, result, elapsed)
            return result

        return wrapper

    def timed(self, name, fn, *args, **kwargs):
        """Call ``fn`` as span ``name``; returns (result, seconds)."""
        holder = {}

        def after(bound, result, elapsed):
            holder["s"] = elapsed

        result = self.wrap(name, fn, after=after)(*args, **kwargs)
        return result, holder["s"]


class Stages:
    """Work and wall time of every end-to-end stage call, plus the outputs the checks need.

    Calls are kept per period: one set-up or one round of the workload. All
    set-ups of a run make the same calls with the same arguments, and so do
    all rounds, so the n-th call of a stage in one round repeats the n-th
    call of the previous round. Calls made inside ``same_work(label)`` are
    repetitions of each other too: the benchmark's own calls that differ
    only in their seed (slot-draw chunks, pair calls, oracle parts,
    companion evaluations). Each call is charged at the fastest call it
    repeats, and a stage's rate is the work of all its calls over the sum
    of those charges. A call is timed whole, so everything it costs is
    charged -- garbage collection too, which recurs in every round because
    every round allocates alike -- while the machine's slow stretches,
    which fall on some repetitions and not on others, are not.
    """

    def __init__(self):
        self.periods = []                   # (kind, [(stage, work, seconds, label)]) per period
        self.counts = defaultdict(float)    # epochs and probes, for the per-layer metrics
        self.fits = []                      # (surrogate, ChannelParams, training pairs)
        self.in_cli_eval = False
        self.pending_eval_frames = 0
        self._label = None
        self._pairs = []
        self._pairs_in_fit = None           # seconds of pairs made inside the open fit call

    def new_period(self, kind):
        """Start a set-up or a round; forget the outputs kept for the checks."""
        self.periods.append((kind, []))
        self.fits.clear()
        self._pairs.clear()

    @contextlib.contextmanager
    def same_work(self, label):
        """Stage calls made inside repeat one another: the same work, other seeds."""
        self._label = label
        try:
            yield
        finally:
            self._label = None

    def add(self, stage, work, seconds):
        self.periods[-1][1].append((stage, work, seconds, self._label))

    def rate(self, stage):
        """Work per second, each call charged at the fastest call it repeats."""
        reps = defaultdict(list)    # repetition key -> [(work, seconds)]
        for kind, calls in self.periods:
            own = [call for call in calls if call[0] == stage]
            for i, (_, work, seconds, label) in enumerate(own):
                reps[kind, i if label is None else label].append((work, seconds))
        if not reps:
            raise RuntimeError(f"no {stage} work was measured")
        work = charged = 0.0
        for key, calls in reps.items():
            if len({w for w, _ in calls}) != 1:
                raise RuntimeError(f"{stage} calls {key} did unequal work {calls}")
            work += sum(w for w, _ in calls)
            charged += len(calls) * min(t for _, t in calls)
        return work / charged

    def install(self, patches, spans):
        s = self

        def pairs_after(bound, result, elapsed):
            s._pairs.append(result)
            if s._pairs_in_fit is not None:
                s._pairs_in_fit += elapsed   # pairs a fit makes for itself are not fitting

        def fit_before(bound):
            s._pairs_in_fit = 0.0

        def fit_after(bound, result, elapsed):
            epochs = len(result[1]["val_nll"])
            pairs = bound["pairs"] if bound["pairs"] is not None else s._pairs[-1]
            s.add("fit", len(pair_arrays(pairs)[1]) * epochs, elapsed - s._pairs_in_fit)
            s._pairs_in_fit = None
            s.fits.append((result[0], bound["p"], pairs))
            s.counts["fit_epochs"] += epochs

        def train_after(bound, result, elapsed):
            history = result[1]
            epochs = len(history["train_loss"])
            s.add("train", len(bound["train_set"]) * epochs, elapsed)
            s.counts["train_epochs"] += epochs
            s.counts["epochs_after_best"] += epochs - 1 - int(np.argmin(history["val_loss"]))

        def eval_after(bound, result, elapsed):
            # the eval rate covers whole CLI ``eval`` runs, timed by the caller
            if s.in_cli_eval:
                s.pending_eval_frames += len(bound["test_set"]) * bound["n_trials"]

        def oracle_after(bound, result, elapsed):
            s.add("oracle", bound["cfg"].n_particles, elapsed)
            s.counts["oracle_probes"] += len(result)

        stage_hooks = [
            ("surrogate", "generate_pairs", "surrogate.generate_pairs", None, pairs_after),
            ("surrogate", "fit_channel", "surrogate.fit_channel", fit_before, fit_after),
            ("transceiver", "train_end_to_end", "transceiver.train_end_to_end", None,
             train_after),
            ("transceiver", "evaluate_accuracy", "transceiver.evaluate_accuracy", None, eval_after),
            ("particle", "simulate_presence", "particle.simulate_presence", None, oracle_after),
        ]
        for module, attr, name, before, after in stage_hooks:
            patches.replace(module, None, attr,
                            lambda fn, n=name, b=before, a=after: spans.wrap(n, fn, before=b, after=a))


def pair_arrays(pairs):
    """(contexts, targets) arrays from a list of channel pairs or an array pair."""
    if isinstance(pairs, tuple) and len(pairs) == 2:
        return np.asarray(pairs[0], dtype=float), np.asarray(pairs[1], dtype=float)
    return (np.array([(q.w_curr, q.w_prev) for q in pairs], dtype=float),
            np.array([q.w_rx for q in pairs], dtype=float))


class CountingRng:
    """Generator proxy that counts every variate drawn through it."""

    def __init__(self, rng, counts, prefix):
        self._rng = rng
        self._counts = counts
        self._prefix = prefix

    def __getattr__(self, attr):
        method = getattr(self._rng, attr)
        counts, prefix = self._counts, self._prefix

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            counts[prefix + "draws"] += np.size(out)
            counts[prefix + "calls." + attr] += 1
            return out

        return counted


class _NumpyView:
    """The numpy module as the particle oracle sees it in a traced run: its
    generators count their draws."""

    def __init__(self, counts):
        self.random = _RandomView(counts)

    def __getattr__(self, attr):
        return getattr(np, attr)


class _RandomView:
    def __init__(self, counts):
        self._counts = counts

    def default_rng(self, *args, **kwargs):
        self._counts["particle.generators"] += 1
        return CountingRng(np.random.default_rng(*args, **kwargs), self._counts, "particle.")

    def __getattr__(self, attr):
        return getattr(np.random, attr)


class Tracer:
    """Layer spans and counters for a traced run."""

    def __init__(self, spans):
        self.spans = spans
        self.counts = defaultdict(float)

    def install(self, patches):
        spans, counts = self.spans, self.counts
        for module, owner, attr, name in LAYER_SPANS:
            patches.replace(module, owner, attr, lambda fn, n=name: spans.wrap(n, fn))

        def count_calls(key):
            def make(fn):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return counted
            return make

        patches.replace("nn", "Tensor", "__init__", count_calls("nn.tensors_created"))
        patches.replace("channel", None, "capture_probability",
                        count_calls("channel.capture_probability_calls"))
        patches.set(patches.module("particle"), "np", _NumpyView(counts))

        def frames_hook(args, kwargs):
            args = list(args)
            args[0] = CountingRng(args[0], counts, "channel.frames.")
            return tuple(args), kwargs

        def frames_after(bound, result, elapsed):
            frames, p = np.asarray(bound["frames"]), bound["p"]
            counts["channel.symbols_observed"] += frames.size
            k = frames.shape[1]
            used = frames.size if p.noise_std > 0 else 0
            for lag in range(p.memory + 1):
                used += int(np.count_nonzero(np.round(frames[:, : k - lag] * p.max_molecules)))
            counts["channel.frames.used"] += used

        patches.replace("channel", None, "observe_frames",
                        lambda fn: spans.wrap("channel.observe_frames", fn,
                                              after=frames_after, args_hook=frames_hook))

        # collector pauses, measured apart and left inside the spans they interrupt
        started = []

        def collector(phase, info):
            if phase == "start":
                started.append(perf_counter())
            elif started:
                counts["gc.collect_s"] += perf_counter() - started.pop()

        patches.append(gc.callbacks, collector)
