"""Operator entry point for the molecular link lab.

Stages communicate through files: scenario configs, dataset containers,
role-tagged checkpoints, and CSV metrics. ``main`` resolves every
parameter of a command (defaults included) from ``FLAGS``, where a flag
the command cannot run without has the default ``REQUIRED``. The command
derives its randomness from one explicit seed and returns its run record:
the exit code, the files it wrote and the input artifacts it read.
``main`` alone writes that record, with the parameters, the seed and the
inputs' hashes, to ``<out>/manifest.json``: after an exit of 0 or 3, and
never after an exception. Passing the manifest back via ``--config``
reproduces the run byte for byte with BLAS on one thread (the default).

Exit codes: 0 success, 1 runtime failure, 2 usage/config error,
3 acceptance-tolerance breach.
"""

from __future__ import annotations

import os

# BLAS threading is pinned before numpy loads so CLI runs are repeatable;
# set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS to trade determinism for speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, baseline, channel, dataset, nn, particle, runio, surrogate, transceiver

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_TOLERANCE = 3

PHYSICS_REL_TOL = 0.15
PHYSICS_VALIDITY_FLOOR = 1e-3


class UsageError(ValueError):
    """Bad flags, unknown scenarios, or mismatched artifacts."""


def _not_boolean(value) -> None:
    # a JSON true or false would otherwise pass as the number 1 or 0
    if isinstance(value, bool):
        raise UsageError(f"must be a number, got {str(value).lower()}")


def integral(value) -> int:
    """Flag type of an integer; a fraction such as 100.5 is an error, not truncated."""
    _not_boolean(value)
    if isinstance(value, float) and not value.is_integer():
        raise UsageError(f"must be a whole number, got {value!r}")
    return int(value)


def real(value) -> float:
    """Flag type of a real number."""
    _not_boolean(value)
    return float(value)


def positive(value) -> float:
    """Flag type of a positive, finite real number."""
    number = real(value)
    if not (math.isfinite(number) and number > 0):
        raise UsageError(f"must be a positive finite number, got {number!r}")
    return number


def switch(value) -> bool:
    """Flag type of an on/off flag: the bare flag, or a JSON boolean in a config."""
    if not isinstance(value, bool):
        raise UsageError(f"must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class Count:
    """Flag type of an integer count that must be at least ``minimum``."""

    minimum: int = 1

    def __call__(self, value) -> int:
        number = integral(value)
        if number < self.minimum:
            raise UsageError(f"must be at least {self.minimum}, got {number}")
        return number


COUNT = Count()
# both trainers hold one row out to validate, so they need two rows
TRAINABLE = Count(2)

# the default of a flag that a command cannot run without; it sets no value
REQUIRED = object()

# (name, type, default, help) of each command's flags; ``--n-m`` sets ``n_m``.
# A flag given explicitly wins over a --config value, which wins over the default.
SCENARIO = ("scenario", str, "scenario1", "scenario1 | scenario2 | path to a key = value file")
N_M = ("n_m", integral, None, "molecule budget (default: the scenario's)")
SIGMA_N = ("sigma_n", real, None, "count noise standard deviation (default: the scenario's)")
COMMON = (("seed", integral, 0, "master seed"), ("out", str, "runs", "output directory"))
FLAGS = {
    "validate-physics": (
        SCENARIO,
        ("particles", integral, 100_000, "particles in the oracle"),
        ("times", str, None, "comma-separated probe times in s (default: the scenario's)"),
    ),
    "sim-sir": (
        ("scenario", str, "both", "scenario name, config path, or 'both'"),
        ("dt", real, 0.01, "trace step in s"),
        ("symbols", COUNT, 5, "'1' symbols in the frame"),
        SIGMA_N,
        N_M,
    ),
    "gen-data": (
        ("train_count", COUNT, 4000, "training images"),
        ("test_count", COUNT, 1000, "test images"),
    ),
    "fit-channel": (
        SCENARIO,
        N_M,
        SIGMA_N,
        ("pairs", TRAINABLE, surrogate.FIT_PAIRS, "channel pairs to fit on"),
        ("epochs", COUNT, surrogate.FIT_CONFIG.epochs, "maximum epochs"),
        ("export_pairs", switch, False, "also write the pairs to pairs.csv"),
    ),
    "train": (
        ("data", str, REQUIRED, "directory holding train.ds"),
        ("surrogate", str, REQUIRED, "channel surrogate checkpoint"),
        ("epochs", COUNT, transceiver.TRAIN_CONFIG.epochs, "maximum epochs"),
        ("batch", COUNT, transceiver.TRAIN_CONFIG.batch_size, "images per batch"),
        ("lr", positive, transceiver.TRAIN_CONFIG.lr, "learning rate"),
    ),
    "eval": (
        ("model", str, REQUIRED, "semantic model checkpoint"),
        ("data", str, REQUIRED, "directory holding test.ds"),
        SCENARIO,
        N_M,
        SIGMA_N,
        ("trials", COUNT, 3, "channel noise draws per test image"),
    ),
    "sweep": (
        ("data", str, REQUIRED, "directory holding train.ds and test.ds"),
        SCENARIO,
        ("n_m_list", str, "100,300,600,1000,1500,2000,4000,20000",
         "comma-separated molecule budgets"),
        SIGMA_N,
        ("pairs", TRAINABLE, 12_000, "channel pairs per surrogate fit"),
        ("epochs", COUNT, 25, "maximum training epochs per budget"),
        ("trials", COUNT, 3, "channel noise draws per test image"),
    ),
}
# the columns of metrics.csv and sweep.csv
ACCURACY_COLUMNS = ("n_m", "method", "accuracy", "ci_low", "ci_high")


@contextmanager
def _resolving():
    """Scope in which flags, config and input artifacts are resolved.

    A value, lookup or file error raised here is the caller's to fix, so
    it becomes a UsageError; the same errors after it are runtime failures.
    """
    try:
        yield
    except UsageError:
        raise
    except (ValueError, KeyError, OSError) as err:
        raise UsageError(str(err)) from err


def _resolve_flags(args) -> tuple[dict, int, Path]:
    """The command's parameters, the seed and the output directory, created here.

    ``--config`` holds a plain JSON object or a prior run's manifest. A
    plain object may name only the command's parameters. A manifest keeps
    the seed beside its params; it is merged back in so that the replay
    draws the same randomness, and a parameter it holds that the command
    no longer takes is passed over, so that older manifests replay.
    """
    config = {}
    if args.config:
        blob = runio.load_manifest(args.config)
        config = blob.get("params", blob) if isinstance(blob, dict) else blob
        if not isinstance(config, dict):
            raise UsageError(f"{args.config}: expected a JSON object of parameters, "
                             f"or a manifest whose \"params\" is one")
        config = dict(config)
        if "params" in blob:
            config.setdefault("seed", blob.get("seed"))
        elif unknown := sorted(set(config) - {row[0] for row in COMMON + FLAGS[args.command]}):
            raise UsageError(f"{args.config}: {args.command} takes no parameter "
                             f"{', '.join(map(repr, unknown))}")

    def resolve(name, kind, default, _help):
        flag = name.replace("_", "-")
        value = next((v for v in (getattr(args, name), config.get(name), default)
                      if v is not None), None)
        if value is REQUIRED:
            raise UsageError(f"--{flag} is required")
        try:
            return None if value is None else kind(value)
        except (TypeError, ValueError) as err:
            raise UsageError(f"--{flag}: {err}") from err

    seed, out = (resolve(*row) for row in COMMON)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)     # before the flags: a rejected run leaves it empty
    params = {row[0]: resolve(*row) for row in FLAGS[args.command]}
    return {**params, "out": str(out)}, seed, out


def _write_history(path: Path, history: dict) -> None:
    """One row per complete epoch, one column per per-epoch list of ``history``."""
    keys = [key for key, values in history.items() if isinstance(values, list)]
    rows = [(i, *row) for i, row in enumerate(zip(*(history[key] for key in keys)))]
    runio.write_csv(path, ["epoch", *keys], rows)


def _channel_params(params: dict) -> channel.ChannelParams:
    p = channel.load_params(params["scenario"])
    if params.get("n_m") is not None:
        p = channel.with_overrides(p, max_molecules=params["n_m"])
    if params.get("sigma_n") is not None:
        p = channel.with_overrides(p, noise_std=params["sigma_n"])
    return p


def _dataset(path: Path, training: bool = False) -> dataset.Dataset:
    """A dataset container; a training set needs two images, as training holds one out."""
    if not path.exists():
        raise UsageError(f"missing dataset: {path}")
    data = dataset.load_dataset(path)
    if not len(data):
        raise UsageError(f"{path} holds no images")
    if training and len(data) < TRAINABLE.minimum:
        raise UsageError(f"{path} holds {len(data)} image(s); training holds one out to "
                         f"validate, so it needs at least {TRAINABLE.minimum}")
    return data


def _check_images(path: Path, data: dataset.Dataset, expected: tuple, source: str) -> None:
    """Refuse a dataset whose (height, width, channels) differ from ``source``'s ``expected``."""
    shape = (data.height, data.width, data.channels)
    if shape != expected:
        raise UsageError(f"{path} holds {shape} images; {source} expects {expected}")


def sweep(seed, train_set, test_set, links, n_pairs, epochs, trials):
    """Semantic and baseline accuracy at each molecule budget, in the order of ``links``.

    Trains the baseline classifier, then for each ``(n_m, channel params)``
    link fits a surrogate on ``n_pairs`` pairs, trains the semantic model
    through it for at most ``epochs`` epochs and evaluates both methods over
    ``trials`` noise draws. Yields ``(n_m, semantic, baseline)``, each an
    ``(accuracy, ci_low, ci_high)``. The acceptance gate runs this loop
    too; the streams carry the labels its recorded figures were drawn with.
    """
    codec = baseline.CodecConfig()
    classifier = baseline.train_baseline_classifier(
        runio.derive_rng(seed, "acceptance", "classifier"), codec, train_set)
    for n_m, p in links:
        def rng(stage):
            return runio.derive_rng(seed, "acceptance", stage, n_m)

        fit_rng = rng("fit")
        pairs = surrogate.generate_pairs(fit_rng, p, n_pairs)
        surr, _ = surrogate.fit_channel(fit_rng, p, surrogate.FIT_CONFIG, pairs)
        model, _ = transceiver.train_end_to_end(
            rng("train"), train_set, surr, replace(transceiver.TRAIN_CONFIG, epochs=epochs))
        yield (n_m,
               transceiver.evaluate_accuracy(rng("eval"), model, p, test_set, n_trials=trials),
               baseline.baseline_evaluate(rng("base"), codec, p, test_set, classifier,
                                          n_trials=trials))


def cmd_validate_physics(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    with _resolving():
        p = _channel_params(params)
        if params["times"] is not None:
            times = tuple(float(t) for t in params["times"].split(","))
            cfg = particle.ParticleSimConfig(n_particles=params["particles"],
                                             record_times=times, seed=seed)
        elif params["scenario"] in channel.scenario_names():
            cfg = particle.default_sim_config(params["scenario"],
                                              n_particles=params["particles"], seed=seed)
        else:
            raise UsageError(f"--times: {params['scenario']} is a scenario file, which has "
                             "no default probe grid; give the probe times")
    # the probes whose formula value is large enough for a relative error; an
    # invalid formula stays a runtime failure, as in the oracle's curve
    checked = {t for t in cfg.record_times
               if channel.capture_probability(p, t) >= PHYSICS_VALIDITY_FLOOR}
    if not checked:
        raise UsageError(f"no probe time in {list(cfg.record_times)} s has a capture "
                         f"probability of {PHYSICS_VALIDITY_FLOOR:g} or more, so none can "
                         f"be checked")

    curve = particle.empirical_capture_curve(cfg, p)
    csv_path = out / f"capture_{Path(params['scenario']).name}.csv"
    particle.write_capture_csv(csv_path, curve, cfg, p)

    breaches = [t for t, _, _, rel in curve if t in checked and rel > PHYSICS_REL_TOL]
    outputs = [csv_path.name, csv_path.name + ".meta.json"]
    for t, emp, analytic, rel in curve:
        gate = "checked" if t in checked else "below validity floor"
        print(f"t={t:g}s empirical={emp:.6g} analytic={analytic:.6g} rel_err={rel:.3f} ({gate})")
    if breaches:
        print(f"FAIL: {len(breaches)}/{len(checked)} probe(s) exceed {PHYSICS_REL_TOL:.0%} "
              f"relative error: {[f'{t:g}s' for t in breaches]}")
        return EXIT_TOLERANCE, outputs, []
    print(f"PASS: {len(checked)} probe(s) within {PHYSICS_REL_TOL:.0%}")
    return EXIT_OK, outputs, []


def cmd_sim_sir(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    with _resolving():
        names = channel.scenario_names() if params["scenario"] == "both" else (params["scenario"],)
        links = [(name, _channel_params({**params, "scenario": name})) for name in names]
        for _, p in links:
            if not 0 < params["dt"] < p.slot_s:
                raise UsageError(f"dt must lie in (0, slot_s={p.slot_s}); got {params['dt']}")
    outputs = []
    for name, p in links:
        trace = channel.sir_trace(p, [1.0] * params["symbols"], params["dt"])
        path = out / f"sir_{Path(name).name}.csv"
        channel.write_sir_csv(path, trace)
        outputs.append(path.name)
        # with no noise and no ISI every sample is inf
        peak = max(trace[:, 1][np.isfinite(trace[:, 1])], default=math.inf)
        print(f"{name}: {len(trace)} samples, peak SIR {peak:.2f}")
    return EXIT_OK, outputs, []


def cmd_gen_data(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    train = dataset.make_dataset(runio.derive_rng(seed, "dataset", "train"), params["train_count"])
    test = dataset.make_dataset(runio.derive_rng(seed, "dataset", "test"), params["test_count"])
    dataset.save_dataset(out / "train.ds", train)
    dataset.save_dataset(out / "test.ds", test)
    print(f"wrote {len(train)} train / {len(test)} test samples to {out}")
    return EXIT_OK, ["train.ds", "test.ds"], []


def cmd_fit_channel(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    with _resolving():
        p = _channel_params(params)
        surrogate.check_memory(p)
        channel.check_observable(p)
        cfg = replace(surrogate.FIT_CONFIG, epochs=params["epochs"])
    rng = runio.derive_rng(seed, "fit-channel")
    pairs = surrogate.generate_pairs(rng, p, params["pairs"])
    try:
        surr, history = surrogate.fit_channel(rng, p, cfg, pairs)
    except nn.TrainingDivergedError as err:
        _write_history(out / "nll_history.csv", err.history)
        raise
    _write_history(out / "nll_history.csv", history)
    surr.channel = {"scenario": params["scenario"], "params": asdict(p)}
    ckpt = out / "surrogate.ckpt"
    surr.save(ckpt)
    outputs = [ckpt.name, "nll_history.csv"]
    if params["export_pairs"]:
        surrogate.write_pairs_csv(out / "pairs.csv", pairs)
        outputs.append("pairs.csv")
    print(f"fitted channel surrogate in {len(history['val_nll'])} epochs "
          f"(stop: {history['stop']}), best validation NLL {min(history['val_nll']):.4f} "
          f"-> {ckpt}")
    return EXIT_OK, outputs, []


def cmd_train(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    with _resolving():
        train_path = Path(params["data"]) / "train.ds"
        train_set = _dataset(train_path, training=True)
        surr = surrogate.ChannelSurrogate.load(params["surrogate"])
        cfg = replace(transceiver.TRAIN_CONFIG, epochs=params["epochs"],
                      batch_size=params["batch"], lr=params["lr"])
    try:
        model, history = transceiver.train_end_to_end(
            runio.derive_rng(seed, "train"), train_set, surr, cfg)
    except nn.TrainingDivergedError as err:
        _write_history(out / "train_history.csv", err.history)
        raise
    _write_history(out / "train_history.csv", history)
    ckpt = out / "semantic.ckpt"
    model.save(ckpt)
    kept = history["val_loss"].index(min(history["val_loss"]))
    print(f"trained semantic model: {len(history['val_loss'])} epochs "
          f"(stop: {history['stop']}), kept epoch {kept} with val acc "
          f"{history['val_acc'][kept]:.3f} -> {ckpt}")
    return EXIT_OK, [ckpt.name, "train_history.csv"], [train_path, params["surrogate"]]


def cmd_eval(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    with _resolving():
        test_path = Path(params["data"]) / "test.ds"
        test_set = _dataset(test_path)
        model = transceiver.SemanticModel.load(params["model"])
        p = _channel_params(params)
        channel.check_observable(p)
        _check_images(test_path, test_set, model.image_shape, "the model")
        if model.num_classes < test_set.num_classes:
            raise UsageError(f"{test_path} holds {test_set.num_classes} classes; the model "
                             f"decoder has only {model.num_classes} outputs")
    acc, lo, hi = transceiver.evaluate_accuracy(
        runio.derive_rng(seed, "eval"), model, p, test_set, n_trials=params["trials"])
    runio.write_csv(out / "metrics.csv", ACCURACY_COLUMNS,
                    [(p.max_molecules, "semantic", acc, lo, hi)])
    print(f"semantic accuracy at n_m={p.max_molecules}: {acc:.3f} [{lo:.3f}, {hi:.3f}]")
    return EXIT_OK, ["metrics.csv"], [test_path, params["model"]]


def cmd_sweep(params: dict, seed: int, out: Path) -> tuple[int, list, list]:
    with _resolving():
        data_dir = Path(params["data"])
        train_path, test_path = data_dir / "train.ds", data_dir / "test.ds"
        train_set = _dataset(train_path, training=True)
        test_set = _dataset(test_path)
        if train_set.num_classes < test_set.num_classes:
            raise UsageError(f"{train_path} holds {train_set.num_classes} classes and "
                             f"{test_path} {test_set.num_classes}; models trained on it "
                             f"would have too few outputs")
        train_shape = (train_set.height, train_set.width, train_set.channels)
        _check_images(test_path, test_set, train_shape, f"a model trained on {train_path}")
        if train_set.channels != 1:
            raise UsageError(f"{train_path} holds {train_set.channels}-channel images; the "
                             f"baseline codes one grayscale channel")
        try:    # the baseline's codec blocks must tile the images
            baseline.source_bit_count((train_set.height, train_set.width))
        except ValueError as err:
            raise UsageError(f"{train_path}: {err}") from err
        try:
            budgets = [integral(float(x)) for x in params["n_m_list"].split(",")]
        except ValueError as err:
            raise UsageError(f"--n-m-list: {err}") from err
        links = [(n_m, _channel_params({**params, "n_m": n_m})) for n_m in budgets]
        for _, p in links:
            surrogate.check_memory(p)
            channel.check_observable(p)

    rows = []
    for n_m, (acc, lo, hi), (bacc, blo, bhi) in sweep(
            seed, train_set, test_set, links, params["pairs"], params["epochs"], params["trials"]):
        rows += [(n_m, "semantic", acc, lo, hi), (n_m, "baseline", bacc, blo, bhi)]
        print(f"n_m={n_m}: semantic {acc:.3f} [{lo:.3f},{hi:.3f}]  "
              f"baseline {bacc:.3f} [{blo:.3f},{bhi:.3f}]")
    runio.write_csv(out / "sweep.csv", ACCURACY_COLUMNS, rows)
    return EXIT_OK, ["sweep.csv"], [train_path, test_path]


COMMANDS = {
    "validate-physics": (cmd_validate_physics, "particle oracle vs capture formula"),
    "sim-sir": (cmd_sim_sir, "deterministic SIR traces for an all-ones frame"),
    "gen-data": (cmd_gen_data, "generate the toy shape dataset"),
    "fit-channel": (cmd_fit_channel, "fit the Gaussian-mixture channel surrogate"),
    "train": (cmd_train, "train the semantic transceiver through a frozen surrogate"),
    "eval": (cmd_eval, "evaluate a semantic model through the real channel"),
    "sweep": (cmd_sweep, "accuracy vs molecule budget for both methods"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclink",
        description="Molecular communication link lab: physics validation, "
                    "channel surrogate fitting, semantic transceiver training, "
                    "and accuracy sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"mclink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--config", help="JSON file or prior manifest supplying parameters")
        # values stay strings here: resolution converts them, whatever their source
        for name, kind, default, text in COMMON + FLAGS[command]:
            shown = (text if default is None else f"{text} (required)" if default is REQUIRED
                     else f"{text} (default {default})")
            flag = "--" + name.replace("_", "-")
            if kind is switch:
                sp.add_argument(flag, action="store_const", const=True, help=shown)
            else:
                sp.add_argument(flag, help=shown)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _resolving():
            params, seed, out = _resolve_flags(args)
        code, outputs, inputs = COMMANDS[args.command][0](params, seed, out)
        runio.write_manifest(out, args.command, params, seed,
                             {str(path): runio.sha256_file(path) for path in inputs}, outputs)
        return code
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except nn.TrainingDivergedError as err:
        print(f"training failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
